package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"github.com/s3pg/s3pg/internal/ckpt"
	"github.com/s3pg/s3pg/internal/faultio"
)

// The tests of a batch's two-step write (Begin, then Commit or Abort) and of
// Retract. make race runs every test in this file ten more times under the
// race detector: a batch's fsync runs on a goroutine of its own beside the
// caller's apply and APPLIED write.

// TestBatchOneSyncPerBatch: a batch costs one fsync, its UPDATE's, which
// also covers the APPLIED record before it; Close syncs the last APPLIED
// record, and the reopen finds every pair.
func TestBatchOneSyncPerBatch(t *testing.T) {
	dir := t.TempDir()
	fsys := &countingFS{FS: ckpt.OSFS}
	l, _, err := Open(dir, Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	before := fsys.syncs.Load() // the segment header's
	const n = 5
	appendPairs(t, l, n)
	if got := fsys.syncs.Load() - before; got != n {
		t.Fatalf("%d batches made %d fsyncs, want one each", n, got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fsys.syncs.Load() - before; got != n+1 {
		t.Fatalf("Close after %d batches: %d fsyncs in all, want %d (the last APPLIED record's)", n, got, n+1)
	}
	_, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2*n {
		t.Fatalf("recovered %d records, want %d", len(recs), 2*n)
	}
	for i := 0; i < n; i++ {
		u, a := recs[2*i], recs[2*i+1]
		lsn := uint64(i + 1)
		if u.Kind != KindUpdate || u.LSN != lsn || a.Kind != KindApplied || a.LSN != lsn || !bytes.Equal(a.Payload, digestOf(lsn)) {
			t.Fatalf("batch %d recovered as %+v, %+v", lsn, u, a)
		}
	}
}

// TestBatchAbortLeavesNoRecord: an aborted batch's UPDATE record is cut off
// the segment and its LSN goes to the next batch, whose frames follow the
// last committed pair directly, at the start of a segment too; after an
// abort the active segment is synced, so Close syncs nothing more.
func TestBatchAbortLeavesNoRecord(t *testing.T) {
	for _, c := range []struct {
		name    string
		segment int64
	}{{"mid-segment", 0}, {"first in a segment", 1}} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			fsys := &countingFS{FS: ckpt.OSFS}
			l, _, err := Open(dir, Options{FS: fsys, SegmentBytes: c.segment})
			if err != nil {
				t.Fatal(err)
			}
			appendPairs(t, l, 2)
			path := lastSegment(t, dir)
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			b, err := l.Begin([]byte("rejected"))
			if err != nil || b.LSN != 3 {
				t.Fatalf("Begin: %+v %v", b, err)
			}
			if err := b.Abort(); err != nil {
				t.Fatal(err)
			}
			if got, err := os.Stat(lastSegment(t, dir)); err != nil || c.segment == 0 && got.Size() != info.Size() ||
				c.segment != 0 && got.Size() != segHeaderSize {
				t.Fatalf("segment after Abort: %v bytes (%v), before the batch %d", got.Size(), err, info.Size())
			}
			syncs := fsys.syncs.Load()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got := fsys.syncs.Load() - syncs; got != 0 {
				t.Fatalf("Close after an abort made %d fsyncs, want 0", got)
			}
			l, recs, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 4 {
				t.Fatalf("recovered %d records after the abort, want 4", len(recs))
			}
			if lsn := commitBatch(t, l, []byte("accepted")); lsn != 3 {
				t.Fatalf("the batch after the abort got LSN %d, want 3", lsn)
			}
			l.Close()
			_, recs, err = Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 6 || recs[4].LSN != 3 || string(recs[4].Payload) != "accepted" {
				t.Fatalf("recovered %+v", recs)
			}
		})
	}
	t.Run("abort, then commit on the same log", func(t *testing.T) {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		appendPairs(t, l, 1)
		b, err := l.Begin([]byte("a rejected batch with a longer payload than the next"))
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Abort(); err != nil {
			t.Fatal(err)
		}
		if lsn := commitBatch(t, l, []byte("next")); lsn != 2 {
			t.Fatalf("LSN %d, want 2", lsn)
		}
		l.Close()
		// No hole and no stale bytes between the pairs: the write position
		// went back with the cut.
		_, recs, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 4 || string(recs[2].Payload) != "next" {
			t.Fatalf("recovered %+v", recs)
		}
	})
}

// TestBatchSyncFailurePoisons: a failed fsync fails the batch, whether it
// ends in Commit or Abort, and the log takes nothing more until a reopen,
// which keeps every committed batch.
func TestBatchSyncFailurePoisons(t *testing.T) {
	for _, abort := range []bool{false, true} {
		t.Run(fmt.Sprintf("abort=%v", abort), func(t *testing.T) {
			dir := t.TempDir()
			// Sync #1 is the segment header's, #2 the first batch's.
			l, _, err := Open(dir, Options{FS: &faultio.FS{FailSync: 3}})
			if err != nil {
				t.Fatal(err)
			}
			appendPairs(t, l, 1)
			b, err := l.Begin([]byte("second"))
			if err != nil {
				t.Fatal(err)
			}
			if abort {
				err = b.Abort()
			} else {
				err = b.Commit(digestOf(b.LSN))
			}
			if !errors.Is(err, faultio.ErrInjected) {
				t.Fatalf("batch whose fsync failed: %v", err)
			}
			if _, err := l.Begin([]byte("third")); !errors.Is(err, ErrFailed) {
				t.Fatalf("Begin after the failure: %v, want ErrFailed", err)
			}
			l.Close()
			_, recs, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) < 2 || recs[0].LSN != 1 || recs[1].Kind != KindApplied {
				t.Fatalf("the committed batch did not survive: %+v", recs)
			}
		})
	}
}

// TestRetractRecoveredUpdate: an UPDATE record the reopen found last, with no
// APPLIED record, can be cut off its (recovered) segment; nothing else can.
func TestRetractRecoveredUpdate(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendPairs(t, l, 2)
	if _, err := l.AppendUpdate([]byte("never applied")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("recovered %d records, want 5", len(recs))
	}
	if err := l.Retract(2); err == nil {
		t.Fatal("Retract of an UPDATE that has an APPLIED record succeeded")
	}
	if err := l.Retract(3); err != nil {
		t.Fatal(err)
	}
	if err := l.Retract(2); err == nil {
		t.Fatal("a second Retract succeeded")
	}
	if lsn := commitBatch(t, l, []byte("next")); lsn != 3 {
		t.Fatalf("the batch after the retraction got LSN %d, want 3", lsn)
	}
	l.Close()
	_, recs, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 || string(recs[4].Payload) != "next" {
		t.Fatalf("recovered %+v", recs)
	}
}

// TestConcurrentBatchHammer: batches that commit, batches that abort and
// one-frame appends from 8 goroutines, over small segments. Every LSN handed
// out by a committed batch or an append is unique and the recovered log is
// dense, each committed batch's UPDATE and APPLIED adjacent, nothing of an
// aborted batch left.
func TestConcurrentBatchHammer(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const (
		goroutines = 8
		perG       = 24
	)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		committed = map[uint64]string{}
		updates   = map[uint64]string{}
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				payload := fmt.Sprintf("g%d-i%d", g, i)
				if i%3 == 0 {
					lsn, err := l.AppendUpdate([]byte(payload))
					if err != nil {
						t.Errorf("%s: %v", payload, err)
						return
					}
					mu.Lock()
					updates[lsn] = payload
					mu.Unlock()
					continue
				}
				b, err := l.Begin([]byte(payload))
				if err != nil {
					t.Errorf("%s: %v", payload, err)
					return
				}
				if i%3 == 1 {
					err = b.Abort()
				} else {
					err = b.Commit(digestOf(b.LSN))
					mu.Lock()
					if _, dup := committed[b.LSN]; dup {
						t.Errorf("LSN %d committed twice", b.LSN)
					}
					committed[b.LSN] = payload
					mu.Unlock()
				}
				if err != nil {
					t.Errorf("%s: %v", payload, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	l.Close()
	_, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*len(committed) + len(updates); len(recs) != want {
		t.Fatalf("recovered %d records, want %d", len(recs), want)
	}
	for i := 0; i < len(recs); i++ {
		r := recs[i]
		if p, ok := updates[r.LSN]; ok {
			if r.Kind != KindUpdate || string(r.Payload) != p {
				t.Fatalf("record %d: %+v, want the append %q", i, r, p)
			}
			continue
		}
		p, ok := committed[r.LSN]
		if !ok || r.Kind != KindUpdate || string(r.Payload) != p || i+1 == len(recs) ||
			recs[i+1].Kind != KindApplied || recs[i+1].LSN != r.LSN {
			t.Fatalf("record %d: %+v, want the committed batch %q followed by its APPLIED record", i, r, p)
		}
		i++
	}
}
