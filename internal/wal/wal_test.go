package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/s3pg/s3pg/internal/ckpt"
	"github.com/s3pg/s3pg/internal/faultio"
)

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	return names
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log recovered %d records", len(recs))
	}
	var want []Record
	for i := 0; i < 10; i++ {
		payload := []byte(fmt.Sprintf("delta-%d", i))
		lsn, err := l.AppendUpdate(payload)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("AppendUpdate #%d got LSN %d", i, lsn)
		}
		want = append(want, Record{LSN: lsn, Kind: KindUpdate, Payload: payload})
		if i%2 == 0 {
			digest := []byte(fmt.Sprintf("digest-%d", lsn))
			if err := l.AppendApplied(lsn, digest); err != nil {
				t.Fatal(err)
			}
			want = append(want, Record{LSN: lsn, Kind: KindApplied, Payload: digest})
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.LSN != want[i].LSN || r.Kind != want[i].Kind || !bytes.Equal(r.Payload, want[i].Payload) {
			t.Fatalf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
	// Recovery resumes the APPLIED sequence after 9 (9 is refused, 10 taken)
	// and the dense UPDATE sequence after 10.
	if err := l2.AppendApplied(9, []byte("again")); err == nil {
		t.Fatal("post-recovery AppendApplied(9) accepted, want out of order")
	}
	if err := l2.AppendApplied(10, []byte("digest-10")); err != nil {
		t.Fatalf("post-recovery AppendApplied(10): %v", err)
	}
	if lsn, err := l2.AppendUpdate([]byte("next")); err != nil || lsn != 11 {
		t.Fatalf("post-recovery append: lsn=%d err=%v", lsn, err)
	}
}

func TestRotationSpansSegments(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := l.AppendUpdate([]byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if files := segFiles(t, dir); len(files) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", files)
	}
	l2, recs, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != n {
		t.Fatalf("recovered %d records across segments, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
}

// lastSegment returns the path of the highest-numbered segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	files := segFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("no segments")
	}
	last := files[0]
	for _, f := range files[1:] {
		if f > last {
			last = f
		}
	}
	return filepath.Join(dir, last)
}

// populate writes n update records and returns the directory.
func populate(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.AppendUpdate([]byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestTornTailTruncatedSilently(t *testing.T) {
	for _, tear := range []struct {
		name string
		cut  func([]byte) []byte
	}{
		{"partial header", func(b []byte) []byte {
			return append(b, []byte(recMagic)...) // frame cut inside its header
		}},
		{"partial payload", func(b []byte) []byte {
			return append(b, appendFrame(nil, Record{LSN: 99, Kind: KindUpdate, Payload: []byte("never-synced")})[:recHeaderSize+4]...)
		}},
		{"corrupt final crc", func(b []byte) []byte {
			f := appendFrame(nil, Record{LSN: 99, Kind: KindUpdate, Payload: []byte("torn")})
			f[len(f)-1] ^= 0xff
			return append(b, f...)
		}},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := populate(t, 4)
			path := lastSegment(t, dir)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			clean := len(data)
			if err := os.WriteFile(path, tear.cut(data), 0o644); err != nil {
				t.Fatal(err)
			}
			l, recs, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("torn tail was not recovered: %v", err)
			}
			defer l.Close()
			if len(recs) != 4 {
				t.Fatalf("recovered %d records, want 4", len(recs))
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() != int64(clean) {
				t.Fatalf("torn tail not truncated: %d bytes, want %d", info.Size(), clean)
			}
			// The tear consumed no LSN: the next batch gets 5.
			if lsn, err := l.AppendUpdate([]byte("after")); err != nil || lsn != 5 {
				t.Fatalf("append after torn-tail recovery: lsn=%d err=%v", lsn, err)
			}
		})
	}
}

func TestMidSegmentCorruptionRejectedLoudly(t *testing.T) {
	t.Run("bitflip before valid records", func(t *testing.T) {
		dir := populate(t, 6)
		path := lastSegment(t, dir)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[segHeaderSize+recHeaderSize] ^= 0xff // first record's payload
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("mid-segment corruption not rejected: %v", err)
		}
	})
	t.Run("torn tail in non-final segment", func(t *testing.T) {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{SegmentBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := l.AppendUpdate([]byte("payload-payload-payload")); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		files := segFiles(t, dir)
		if len(files) < 2 {
			t.Fatalf("need several segments, got %v", files)
		}
		first := filepath.Join(dir, files[0])
		data, err := os.ReadFile(first)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(first, data[:len(data)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("damage in a non-final segment not rejected: %v", err)
		}
	})
	t.Run("bad segment header", func(t *testing.T) {
		dir := populate(t, 1)
		path := lastSegment(t, dir)
		if err := os.WriteFile(path, []byte("not a wal segment at all......"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bad header not rejected: %v", err)
		}
	})
}

func TestEmptySegmentRecoversAndIsReused(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		l, recs, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("open #%d: %v", i, err)
		}
		if len(recs) != 0 {
			t.Fatalf("open #%d recovered %d records", i, len(recs))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Repeated open/close must not accumulate header-only segments.
	if files := segFiles(t, dir); len(files) != 1 {
		t.Fatalf("empty log accumulated segments: %v", files)
	}
}

func TestAppendFailurePoisonsUntilReopen(t *testing.T) {
	dir := t.TempDir()
	// Sync #1 is the segment header; #3 tears the second append.
	fsys := &faultio.FS{FailSync: 3}
	l, _, err := Open(dir, Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendUpdate([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendUpdate([]byte("second")); err == nil {
		t.Fatal("injected sync failure did not fail the append")
	}
	if _, err := l.AppendUpdate([]byte("third")); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after failure = %v, want ErrFailed", err)
	}
	l.Close()
	// Reopen recovers: the un-synced second record is at the tail, so it is
	// either intact (the write reached the file) or torn; in both cases the
	// first record survives and the LSN sequence stays dense.
	l2, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) == 0 || recs[0].LSN != 1 || string(recs[0].Payload) != "first" {
		t.Fatalf("acknowledged record lost after failure: %+v", recs)
	}
	wantNext := uint64(len(recs)) + 1
	if lsn, err := l2.AppendUpdate([]byte("resumed")); err != nil || lsn != wantNext {
		t.Fatalf("append after reopen: lsn=%d err=%v, want %d", lsn, err, wantNext)
	}
}

func TestShortWritesNeverLoseAcknowledgedRecords(t *testing.T) {
	// A plan with short writes tears record frames mid-append; an append only
	// succeeds once its bytes (and sync) all landed, so every LSN returned
	// without error must survive recovery.
	dir := t.TempDir()
	fsys := &faultio.FS{Plan: faultio.Plan{Seed: 7, ShortEvery: 3}}
	l, _, err := Open(dir, Options{FS: fsys, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var acked []uint64
	for i := 0; i < 40; i++ {
		lsn, err := l.AppendUpdate([]byte(fmt.Sprintf("payload-%02d", i)))
		if err != nil {
			break // poisoned; a real server would crash and recover here
		}
		acked = append(acked, lsn)
	}
	l.Close()
	_, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery after short writes: %v", err)
	}
	got := map[uint64]bool{}
	for _, r := range recs {
		got[r.LSN] = true
	}
	for _, lsn := range acked {
		if !got[lsn] {
			t.Fatalf("acknowledged LSN %d lost (recovered %d of %d)", lsn, len(recs), len(acked))
		}
	}
}

func TestRotationOpenFailureFailsAppendCleanly(t *testing.T) {
	dir := t.TempDir()
	// Create #1 is the initial segment; create #2 is the rotation's new
	// segment. With it failing, rotation closes the old segment and then has
	// nothing to append to — the append must return an error, not panic.
	fsys := &faultio.FS{FailCreate: 2}
	l, _, err := Open(dir, Options{FS: fsys, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var acked []uint64
	var appendErr error
	for i := 0; i < 10; i++ {
		lsn, err := l.AppendUpdate([]byte("payload-payload-payload-payload"))
		if err != nil {
			appendErr = err
			break
		}
		acked = append(acked, lsn)
	}
	if appendErr == nil {
		t.Fatal("rotation create failure never surfaced as an append error")
	}
	if len(acked) == 0 {
		t.Fatal("no append succeeded before the injected rotation failure")
	}
	// The log is poisoned, not panicked: further appends bounce with ErrFailed.
	if _, err := l.AppendUpdate([]byte("after")); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after failed rotation = %v, want ErrFailed", err)
	}
	l.Close()
	// Reopen recovers every acknowledged record and resumes the sequence.
	l2, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != len(acked) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(acked))
	}
	if lsn, err := l2.AppendUpdate([]byte("resumed")); err != nil || lsn != uint64(len(acked))+1 {
		t.Fatalf("append after reopen: lsn=%d err=%v, want %d", lsn, err, len(acked)+1)
	}
}

func TestReadRecordsMatchesOpenOnLiveLog(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := l.AppendUpdate([]byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := l.AppendApplied(uint64(i+1), []byte("digest")); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Read-only access while the log is still open for appends: same records,
	// no truncation, no temp cleanup.
	recs, err := ReadRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	var updates int
	for _, r := range recs {
		if r.Kind == KindUpdate {
			updates++
		}
	}
	if updates != n {
		t.Fatalf("ReadRecords saw %d updates, want %d", updates, n)
	}
	// The live log keeps appending afterwards.
	if lsn, err := l.AppendUpdate([]byte("more")); err != nil || lsn != n+1 {
		t.Fatalf("append after ReadRecords: lsn=%d err=%v", lsn, err)
	}
}

func TestAppendAppliedOrdering(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendApplied(1, nil); err == nil {
		t.Fatal("AppendApplied ahead of any update succeeded")
	}
	lsn, _ := l.AppendUpdate([]byte("x"))
	if err := l.AppendApplied(lsn, []byte("d")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendApplied(lsn, []byte("d")); err == nil {
		t.Fatal("duplicate AppendApplied succeeded")
	}
}

func TestConcurrentAppendHammer(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const (
		goroutines = 8
		perG       = 25
	)
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		all []uint64
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lsn, err := l.AppendUpdate([]byte(fmt.Sprintf("g%d-i%d", g, i)))
				if err != nil {
					t.Errorf("g%d append %d: %v", g, i, err)
					return
				}
				mu.Lock()
				all = append(all, lsn)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	seen := map[uint64]bool{}
	for _, lsn := range all {
		if seen[lsn] {
			t.Fatalf("duplicate LSN %d", lsn)
		}
		seen[lsn] = true
	}
	for lsn := uint64(1); lsn <= goroutines*perG; lsn++ {
		if !seen[lsn] {
			t.Fatalf("LSN %d missing from dense sequence", lsn)
		}
	}
	l.Close()
	// Recovery sees the same dense sequence; replaying it twice into an
	// LSN-guarded consumer is idempotent — the second replay is a no-op.
	_, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != goroutines*perG {
		t.Fatalf("recovered %d records, want %d", len(recs), goroutines*perG)
	}
	applied := map[uint64]string{}
	var lastApplied uint64
	replay := func() int {
		n := 0
		for _, r := range recs {
			if r.LSN <= lastApplied {
				continue // exactly-once: already applied
			}
			applied[r.LSN] = string(r.Payload)
			lastApplied = r.LSN
			n++
		}
		return n
	}
	if n := replay(); n != goroutines*perG {
		t.Fatalf("first replay applied %d", n)
	}
	if n := replay(); n != 0 {
		t.Fatalf("second replay re-applied %d records", n)
	}
}

// countingFS is the real filesystem, counting the fsyncs of the files it
// creates.
type countingFS struct {
	ckpt.FS
	syncs atomic.Int64
}

type countingFile struct {
	ckpt.File
	fs *countingFS
}

func (c *countingFS) CreateTemp(dir, pattern string) (ckpt.File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// digestOf is the APPLIED payload the pair tests write for an LSN.
func digestOf(lsn uint64) []byte { return []byte(fmt.Sprintf("digest-%d", lsn)) }

// commitBatch runs one batch through Begin and Commit and returns its LSN.
func commitBatch(t *testing.T, l *Log, update []byte) uint64 {
	t.Helper()
	b, err := l.Begin(update)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(digestOf(b.LSN)); err != nil {
		t.Fatal(err)
	}
	return b.LSN
}

// appendPairs appends n batches through Begin and Commit, each with its
// APPLIED record.
func appendPairs(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		commitBatch(t, l, []byte(fmt.Sprintf("update-%02d", i)))
	}
}

// pairFrames is the bytes appendPairs writes for a batch.
func pairFrames(lsn uint64) (update, applied []byte) {
	return appendFrame(nil, Record{LSN: lsn, Kind: KindUpdate, Payload: []byte(fmt.Sprintf("update-%02d", lsn-1))}),
		appendFrame(nil, Record{LSN: lsn, Kind: KindApplied, Payload: digestOf(lsn)})
}

// bigUpdate is an UPDATE frame for lsn whose text payload is over two
// sectors long, so a lost sector can fall inside it.
func bigUpdate(lsn uint64) []byte {
	payload := bytes.Repeat([]byte("I <http://x/s> <http://x/p> \"o\" .\n"), 40)
	return appendFrame(nil, Record{LSN: lsn, Kind: KindUpdate, Payload: payload})
}

// zeroed is b with its bytes [i, j) set to zero: sectors that never reached
// the disk.
func zeroed(b []byte, i, j int) []byte {
	out := append([]byte(nil), b...)
	clear(out[i:j])
	return out
}

// flipped is b with one bit of byte i flipped: bit rot.
func flipped(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x10
	return out
}

func TestTornPairRecovery(t *testing.T) {
	u4, a4 := bigUpdate(4), appendFrame(nil, Record{LSN: 4, Kind: KindApplied, Payload: digestOf(4)})
	u5, a5 := pairFrames(5)
	_, a3 := pairFrames(3)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// The tail starts after the segment header and three pairs; the first
	// sector boundary inside u4 is `first` bytes into it.
	clean := segHeaderSize
	for lsn := uint64(1); lsn <= 3; lsn++ {
		u, a := pairFrames(lsn)
		clean += len(u) + len(a)
	}
	first := sectorSize - clean%sectorSize
	if first+2*sectorSize > len(u4) {
		t.Fatalf("u4 (%d bytes from offset %d) does not hold two whole sectors", len(u4), clean)
	}
	lastBoundary := (clean+len(u4))/sectorSize*sectorSize - clean // a4 starts in the sector from here
	// u4s is an UPDATE(4) sized so that the APPLIED(4) after it starts `lead`
	// bytes before a sector boundary: a power loss can lose that sector, the
	// APPLIED frame's first bytes with it, and keep the next one.
	const lead = 20
	u4s := appendFrame(nil, Record{LSN: 4, Kind: KindUpdate,
		Payload: bytes.Repeat([]byte("u"), 2*sectorSize-lead-(clean+recHeaderSize)%sectorSize)})
	if (clean+len(u4s))%sectorSize != sectorSize-lead {
		t.Fatalf("a4 after u4s starts at %d in its sector", (clean+len(u4s))%sectorSize)
	}
	u6, _ := pairFrames(6)
	for _, c := range []struct {
		name string
		tail []byte
		// keep is how many tail bytes survive recovery, -1 for ErrCorrupt.
		keep    int
		records int
	}{
		{"tear inside APPLIED keeps the UPDATE", cat(u4, a4[:len(a4)-3]), len(u4), 7},
		{"tear inside APPLIED header keeps the UPDATE", cat(u4, a4[:5]), len(u4), 7},
		{"tear inside UPDATE drops both", cat(u4[:len(u4)-2]), 0, 6},
		{"tear inside UPDATE header drops both", cat(u4[:recHeaderSize-1]), 0, 6},
		{"lost first UPDATE sector, intact APPLIED", cat(zeroed(u4, 0, first), a4), 0, 6},
		{"lost middle UPDATE sector, intact APPLIED", cat(zeroed(u4, first, first+sectorSize), a4), 0, 6},
		{"lost UPDATE sectors, intact APPLIED, zero tail", cat(zeroed(u4, 0, len(u4)), a4, make([]byte, 64)), 0, 6},
		{"bit flip in the UPDATE payload, intact APPLIED", cat(flipped(u4, recHeaderSize+100), a4), -1, 0},
		{"bit flip in the UPDATE magic, intact APPLIED", cat(flipped(u4, 0), a4), -1, 0},
		{"bit flip in the UPDATE's last byte, intact APPLIED", cat(flipped(u4, len(u4)-1), a4), -1, 0},
		{"zeros short of a sector, intact APPLIED", cat(zeroed(u4, first+1, first+sectorSize), a4), -1, 0},
		{"zeros only in the APPLIED frame's sector", cat(zeroed(u4, lastBoundary, len(u4)), a4), -1, 0},
		{"damage, then an UPDATE", cat(zeroed(u4, 0, first), u5), -1, 0},
		{"damage, then two frames", cat(zeroed(u4, 0, first), a4, u5), -1, 0},
		{"damage, then a whole pair", cat(zeroed(u4, 0, first), u5, a5), -1, 0},
		{"damage, then the APPLIED of an intact UPDATE", cat(zeroed(u4, 0, first), a3), -1, 0},
		{"damage, then an APPLIED two LSNs ahead", cat(zeroed(u4, 0, first), a5), -1, 0},
		// An APPLIED record is synced by the next batch's fsync, which a
		// power loss can cut short: the tail from the damaged APPLIED(4) on
		// was never acknowledged beyond UPDATE(4).
		{"lost APPLIED sector, then the next UPDATE", cat(u4s, zeroed(a4, 0, lead), u5), len(u4s), 7},
		{"lost APPLIED sector, then the next pair", cat(u4s, zeroed(a4, 0, lead), u5, a5), len(u4s), 7},
		{"lost APPLIED and UPDATE sectors, then the next APPLIED", cat(u4s, zeroed(a4, 0, lead), zeroed(u5, 0, len(u5)), a5), len(u4s), 7},
		{"bit flip in the APPLIED, then the next UPDATE", cat(u4s, flipped(a4, recHeaderSize+3), u5), -1, 0},
		{"bit flip in the APPLIED, then the next pair", cat(u4s, flipped(a4, 0), u5, a5), -1, 0},
		{"zeros short of the APPLIED sector, then the next UPDATE", cat(u4s, zeroed(a4, 1, lead), u5), -1, 0},
		{"lost APPLIED sector, then an UPDATE two LSNs ahead", cat(u4s, zeroed(a4, 0, lead), u6), -1, 0},
		{"lost APPLIED sector, then three frames", cat(u4s, zeroed(a4, 0, lead), u5, a5, u6), -1, 0},
		{"zeros after a whole pair, then the next UPDATE", cat(u4s, a4, make([]byte, sectorSize), u5), -1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendPairs(t, l, 3)
			l.Close()
			path := lastSegment(t, dir)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) != clean {
				t.Fatalf("the segment holds %d bytes, want %d", len(data), clean)
			}
			if err := os.WriteFile(path, append(data, c.tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			read, rerr := ReadRecords(dir)
			l, recs, err := Open(dir, Options{})
			if c.keep < 0 {
				if !errors.Is(err, ErrCorrupt) || !errors.Is(rerr, ErrCorrupt) {
					t.Fatalf("Open: %v, ReadRecords: %v; want ErrCorrupt from both", err, rerr)
				}
				return
			}
			if err != nil || rerr != nil {
				t.Fatalf("Open: %v, ReadRecords: %v", err, rerr)
			}
			defer l.Close()
			if len(recs) != c.records || len(read) != c.records {
				t.Fatalf("Open recovered %d records, ReadRecords %d, want %d", len(recs), len(read), c.records)
			}
			if info, err := os.Stat(path); err != nil || info.Size() != int64(clean+c.keep) {
				t.Fatalf("segment is %v bytes after recovery, want %d (%v)", info.Size(), clean+c.keep, err)
			}
			// The next batch gets the LSN after the surviving UPDATEs.
			want := uint64(3 + c.records - 6)
			if lsn := commitBatch(t, l, []byte("next")); lsn != want+1 {
				t.Fatalf("append after recovery: lsn=%d, want %d", lsn, want+1)
			}
		})
	}
	t.Run("torn pair in a non-final segment", func(t *testing.T) {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{SegmentBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		appendPairs(t, l, 3)
		l.Close()
		first := filepath.Join(dir, segFiles(t, dir)[0])
		data, err := os.ReadFile(first)
		if err != nil {
			t.Fatal(err)
		}
		u2, a2 := bigUpdate(2), appendFrame(nil, Record{LSN: 2, Kind: KindApplied, Payload: digestOf(2)})
		if err := os.WriteFile(first, append(data, cat(zeroed(u2, 0, len(u2)), a2)...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("damage in a non-final segment not rejected: %v", err)
		}
	})
}

// TestSingleFrameLogReopens: a log whose batches were written one frame per
// append, the APPLIED record in the segment after its UPDATE, reopens with
// every record and takes paired appends after it.
func TestSingleFrameLogReopens(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 1}) // every append rotates first
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		lsn, err := l.AppendUpdate([]byte(fmt.Sprintf("update-%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendApplied(lsn, digestOf(lsn)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if files := segFiles(t, dir); len(files) < 6 {
		t.Fatalf("want an UPDATE and its APPLIED in different segments, got %v", files)
	}
	l, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 6 {
		t.Fatalf("recovered %d records, want 6", len(recs))
	}
	if lsn := commitBatch(t, l, []byte("paired")); lsn != 4 {
		t.Fatalf("paired append after reopen: lsn=%d", lsn)
	}
}
