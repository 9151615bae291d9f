package server

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/s3pg/s3pg/internal/ckpt"
	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/sparql"
	"github.com/s3pg/s3pg/internal/wal"
)

// syncFS is the real filesystem, counting the fsyncs of the files it creates
// and failing them while fail is set.
type syncFS struct {
	ckpt.FS
	syncs atomic.Int64
	fail  atomic.Bool
}

type syncFile struct {
	ckpt.File
	fs *syncFS
}

var errSyncInjected = errors.New("injected fsync failure")

func (s *syncFS) CreateTemp(dir, pattern string) (ckpt.File, error) {
	f, err := s.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &syncFile{File: f, fs: s}, nil
}

func (f *syncFile) Sync() error {
	f.fs.syncs.Add(1)
	if f.fs.fail.Load() {
		return errSyncInjected
	}
	return f.File.Sync()
}

// emailUpdate is the i-th update of the pair tests: a grow batch.
func emailUpdate(t *testing.T, i int) string {
	t.Helper()
	return fmt.Sprintf(exPrefixDecl+`INSERT DATA { ex:bob ex:email "bob%d@example.org" . ex:p%d a ex:Person . }`, i, i)
}

// applyUpdates runs n grow batches through m and returns their 202 digests.
func applyUpdates(t *testing.T, m *GraphManager, n int) []string {
	t.Helper()
	var digests []string
	for i := 0; i < n; i++ {
		d, err := sparql.ParseUpdate(emailUpdate(t, i))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Update("uni", d)
		if err != nil {
			t.Fatal(err)
		}
		if res.LSN != uint64(i+1) {
			t.Fatalf("update %d acknowledged as LSN %d", i, res.LSN)
		}
		digests = append(digests, res.Digest)
	}
	return digests
}

// replayedDigests reopens the spool at dir and returns the digest of every
// delta its change stream replays.
func replayedDigests(t *testing.T, dir string) []string {
	t.Helper()
	m := newGraphManager(t, GraphConfig{Dir: dir})
	var out []string
	if err := m.Changes("uni", 0, false, nil, func(pd *core.PGDelta) error {
		dg, err := pd.Digest()
		if err != nil {
			return err
		}
		if pd.LSN != uint64(len(out)+1) {
			t.Fatalf("replayed LSN %d at position %d", pd.LSN, len(out))
		}
		out = append(out, dg)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func equalStrings(a, b []string) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// TestGraphUpdateOneSyncPerBatch: an acknowledged batch costs one fsync, its
// UPDATE and APPLIED records written together, and both are in the log.
func TestGraphUpdateOneSyncPerBatch(t *testing.T) {
	dir := t.TempDir()
	fsys := &syncFS{FS: ckpt.OSFS}
	m := newGraphManager(t, GraphConfig{Dir: dir, FS: fsys})
	if _, err := m.Create("uni", "parsimonious", fixtures.UniversityShapesTurtle, universityNT(t)); err != nil {
		t.Fatal(err)
	}
	before := fsys.syncs.Load()
	const n = 4
	applyUpdates(t, m, n)
	if got := fsys.syncs.Load() - before; got != n {
		t.Fatalf("%d acknowledged batches made %d fsyncs, want %d", n, got, n)
	}
	recs, err := wal.ReadRecords(filepath.Join(dir, "uni", graphWALDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2*n {
		t.Fatalf("the log holds %d records, want an UPDATE and an APPLIED per batch", len(recs))
	}
}

// TestGraphFailedPairedWriteAcksNothing: when the paired write's fsync
// fails, the client gets no 202 and the session refuses later updates until
// a restart.
func TestGraphFailedPairedWriteAcksNothing(t *testing.T) {
	fsys := &syncFS{FS: ckpt.OSFS}
	ts, gm := newGraphServer(t, GraphConfig{FS: fsys})
	createUniversityGraph(t, ts, "uni")
	if _, code, raw := postUpdate(t, ts, "uni", emailUpdate(t, 0)); code != http.StatusAccepted {
		t.Fatalf("first update: %d %s", code, raw)
	}
	fsys.fail.Store(true)
	_, code, raw := postUpdate(t, ts, "uni", emailUpdate(t, 1))
	if code == http.StatusAccepted || code != graphStatusCode(ErrGraphBroken) {
		t.Fatalf("update whose fsync failed: %d %s, want %d", code, raw, graphStatusCode(ErrGraphBroken))
	}
	fsys.fail.Store(false)
	d, err := sparql.ParseUpdate(emailUpdate(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gm.Update("uni", d); !errors.Is(err, ErrGraphBroken) {
		t.Fatalf("update after the failed write: %v, want ErrGraphBroken", err)
	}
	if st, err := gm.Status("uni"); err != nil || st.Broken == "" || st.LSN != 1 {
		t.Fatalf("status after the failed write: %+v %v", st, err)
	}
}

// TestGraphTornPairRecovery cuts the last batch's paired write short, inside
// its APPLIED record and inside its UPDATE record: the reopen keeps the
// UPDATE alone in the first case (its digest re-derived by the replay, equal
// to the one acknowledged) and drops the batch in the second.
func TestGraphTornPairRecovery(t *testing.T) {
	for _, c := range []struct {
		name string
		keep int // batches that survive
	}{
		{"inside APPLIED", 3},
		{"inside UPDATE", 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			m := newGraphManager(t, GraphConfig{Dir: dir})
			if _, err := m.Create("uni", "parsimonious", fixtures.UniversityShapesTurtle, universityNT(t)); err != nil {
				t.Fatal(err)
			}
			digests := applyUpdates(t, m, 3)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			walDir := filepath.Join(dir, "uni", graphWALDir)
			recs, err := wal.ReadRecords(walDir)
			if err != nil {
				t.Fatal(err)
			}
			const frameHeader = 21
			applied, update := recs[len(recs)-1], recs[len(recs)-2]
			cut := 3 // bytes off the APPLIED frame's end
			if c.keep == 2 {
				cut = frameHeader + len(applied.Payload) + 5
			}
			segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("segments: %v %v", segs, err)
			}
			sort.Strings(segs)
			last := segs[len(segs)-1]
			info, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			if int(info.Size()) < frameHeader*2+len(applied.Payload)+len(update.Payload) {
				t.Fatalf("the last segment (%d bytes) does not hold the last pair", info.Size())
			}
			if err := os.Truncate(last, info.Size()-int64(cut)); err != nil {
				t.Fatal(err)
			}
			if got := replayedDigests(t, dir); !equalStrings(got, digests[:c.keep]) {
				t.Fatalf("replayed digests %v, want the acknowledged %v", got, digests[:c.keep])
			}
		})
	}
}

// TestGraphSingleFrameSpoolReopens rewrites a graph's log the way a log of
// one frame per append lies on disk, each APPLIED record in the segment after
// its UPDATE: the spool reopens, replays to the acknowledged digests, and
// takes further updates.
func TestGraphSingleFrameSpoolReopens(t *testing.T) {
	dir := t.TempDir()
	m := newGraphManager(t, GraphConfig{Dir: dir})
	if _, err := m.Create("uni", "parsimonious", fixtures.UniversityShapesTurtle, universityNT(t)); err != nil {
		t.Fatal(err)
	}
	const n = 3
	digests := applyUpdates(t, m, n)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, "uni", graphWALDir)
	recs, err := wal.ReadRecords(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(walDir); err != nil {
		t.Fatal(err)
	}
	single, _, err := wal.Open(walDir, wal.Options{SegmentBytes: 1}) // every append rotates first
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Kind == wal.KindUpdate {
			_, err = single.AppendUpdate(r.Payload)
		} else {
			err = single.AppendApplied(r.LSN, r.Payload)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := single.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(walDir, "wal-*.seg")); len(segs) < 2*n {
		t.Fatalf("want one frame per segment, got %d segments", len(segs))
	}
	if got := replayedDigests(t, dir); !equalStrings(got, digests) {
		t.Fatalf("replayed digests %v, want %v", got, digests)
	}
	m2 := newGraphManager(t, GraphConfig{Dir: dir})
	d, err := sparql.ParseUpdate(emailUpdate(t, n))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := m2.Update("uni", d); err != nil || res.LSN != n+1 {
		t.Fatalf("update after reopen: %+v %v", res, err)
	}
}

// rejectedUpdate is a batch ApplyDelta rejects: it annotates a statement
// the graph does not hold.
const rejectedUpdate = exPrefixDecl + `INSERT DATA { << ex:bob ex:missing ex:nothing >> ex:since "2020" . }`

// walRecords reads the graph's log as it lies on disk.
func walRecords(t *testing.T, dir string) []wal.Record {
	t.Helper()
	recs, err := wal.ReadRecords(filepath.Join(dir, "uni", graphWALDir))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestGraphRejectedBatchLeavesNoRecord: a batch the engine rejects after its
// UPDATE record was written leaves no record in the log and consumes no LSN;
// the graph stays healthy and its next batch takes the LSN.
func TestGraphRejectedBatchLeavesNoRecord(t *testing.T) {
	dir := t.TempDir()
	fsys := &syncFS{FS: ckpt.OSFS}
	m := newGraphManager(t, GraphConfig{Dir: dir, FS: fsys})
	if _, err := m.Create("uni", "parsimonious", fixtures.UniversityShapesTurtle, universityNT(t)); err != nil {
		t.Fatal(err)
	}
	digests := applyUpdates(t, m, 2)
	d, err := sparql.ParseUpdate(rejectedUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Update("uni", d); !errors.Is(err, ErrDeltaRejected) {
		t.Fatalf("rejected batch: %v, want ErrDeltaRejected", err)
	}
	if recs := walRecords(t, dir); len(recs) != 4 {
		t.Fatalf("the log holds %d records after the rejection, want the 4 of the two batches", len(recs))
	}
	if st, err := m.Status("uni"); err != nil || st.LSN != 2 || st.Broken != "" {
		t.Fatalf("status after the rejection: %+v %v", st, err)
	}
	d, err = sparql.ParseUpdate(emailUpdate(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Update("uni", d)
	if err != nil || res.LSN != 3 {
		t.Fatalf("the batch after the rejection: %+v %v, want LSN 3", res, err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	recs := walRecords(t, dir)
	if len(recs) != 6 || recs[4].LSN != 3 || string(recs[4].Payload) != string(d.Encode()) {
		t.Fatalf("the log after the next batch: %d records", len(recs))
	}
	if got, want := replayedDigests(t, dir), append(digests, res.Digest); !equalStrings(got, want) {
		t.Fatalf("replayed digests %v, want %v", got, want)
	}
}

// TestGraphRecoveryDropsRejectedTail: a log whose last record is an UPDATE
// with no APPLIED record that the replay rejects (the process died applying
// a batch the engine rejects, so it was never acknowledged) reopens without
// that record, healthy, and the next batch takes its LSN. The same record
// with an APPLIED record, or with a record after it, fails the open.
func TestGraphRecoveryDropsRejectedTail(t *testing.T) {
	d, err := sparql.ParseUpdate(rejectedUpdate)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		after func(l *wal.Log) error // appends after the rejected UPDATE
		opens bool
	}{
		{"alone at the tail", func(*wal.Log) error { return nil }, true},
		{"with an APPLIED record", func(l *wal.Log) error { return l.AppendApplied(3, []byte("digest")) }, false},
		{"followed by an UPDATE", func(l *wal.Log) error { _, err := l.AppendUpdate(d.Encode()); return err }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			m := newGraphManager(t, GraphConfig{Dir: dir})
			if _, err := m.Create("uni", "parsimonious", fixtures.UniversityShapesTurtle, universityNT(t)); err != nil {
				t.Fatal(err)
			}
			digests := applyUpdates(t, m, 2)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			l, _, err := wal.Open(filepath.Join(dir, "uni", graphWALDir), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if lsn, err := l.AppendUpdate(d.Encode()); err != nil || lsn != 3 {
				t.Fatalf("appending the rejected batch: %d %v", lsn, err)
			}
			if err := c.after(l); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			m2, err := OpenGraphs(GraphConfig{Dir: dir})
			if !c.opens {
				if err == nil {
					m2.Close()
					t.Fatal("the open succeeded")
				}
				if !strings.Contains(err.Error(), "replay rejected") {
					t.Fatalf("the open failed for another reason: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if st, err := m2.Status("uni"); err != nil || st.LSN != 2 || st.Broken != "" {
				t.Fatalf("status after the reopen: %+v %v", st, err)
			}
			if recs := walRecords(t, dir); len(recs) != 4 {
				t.Fatalf("the log holds %d records after the reopen, want 4", len(recs))
			}
			next, err := sparql.ParseUpdate(emailUpdate(t, 2))
			if err != nil {
				t.Fatal(err)
			}
			res, err := m2.Update("uni", next)
			if err != nil || res.LSN != 3 {
				t.Fatalf("the batch after the reopen: %+v %v, want LSN 3", res, err)
			}
			if err := m2.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := replayedDigests(t, dir), append(digests, res.Digest); !equalStrings(got, want) {
				t.Fatalf("replayed digests %v, want %v", got, want)
			}
		})
	}
}
