// Package wal implements the durable delta log behind incremental
// transformation: an append-only, CRC-framed record log with atomic segment
// rotation and torn-tail recovery.
//
// Durability. The service writes an update batch through Begin, which writes
// the batch's UPDATE record and starts its fsync, then applies the batch
// while that fsync runs, and ends it with Commit, which writes the APPLIED
// record and waits for the fsync. The batch is acknowledged only after both
// the fsync and the apply have returned, so an acknowledged batch survives
// any crash at the cost of one fsync, which runs beside the apply instead of
// after it. Its APPLIED record becomes durable with the next batch's fsync,
// the fsync before a rotation, or the one at Close; it is a check on the
// replay, not a record the replay needs (see KindApplied). A batch the engine
// rejects ends with Abort, which cuts its UPDATE record off the log before
// the rejection is answered: it consumes no LSN. Replaying the UPDATE records
// through the deterministic ApplyDelta engine re-derives the exact post-batch
// state, which is what makes application exactly-once — a batch is applied
// "twice" only in the sense that the replay recomputes the same result, never
// that its effects double. An UPDATE record that is the log's last record,
// has no APPLIED record and is rejected by the replay was never acknowledged
// (the process died inside its apply); the caller drops it with Retract.
//
// On-disk layout: the log directory holds numbered segment files
// (wal-00000001.seg, …). Segments are created atomically (temp file → header
// → fsync → rename → dir fsync), so a visible segment always has an intact
// header. Records are framed as
//
//	offset  size  field
//	0       4     record magic "S3WR"
//	4       4     payload length n (little-endian)
//	8       4     CRC-32 (IEEE) over bytes [12, 21+n)
//	12      8     LSN
//	20      1     kind
//	21      n     payload
//
// Recovery distinguishes a torn tail (a crash mid-append: the damage is the
// final bytes of the final segment, silently truncated) from mid-segment
// corruption (valid records follow the damage, or the damage is not in the
// last segment: rejected loudly — bit rot must never silently drop accepted
// batches). Two shapes of valid-after-damage are torn tails too, both left
// by a power loss that kept later sectors and lost earlier ones, and both
// followed only by frames of the LSN after the last intact UPDATE (n): a
// damaged UPDATE(n+1) before its APPLIED(n+1), and a damaged APPLIED(n),
// written but not yet synced, before UPDATE(n+1) and maybe APPLIED(n+1).
// When the damage reads as unwritten storage (see unwritten), the fsync of
// UPDATE(n+1) never finished, so batch n+1 was never acknowledged, and the
// tail is truncated from the damage on; the same shapes with damage that
// does not, such as a bit flip in frames that were fsynced, are ErrCorrupt.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/s3pg/s3pg/internal/ckpt"
	"github.com/s3pg/s3pg/internal/obs"
)

// WAL observability counters (obs.Default registry).
var (
	cAppends   = obs.Default.Counter("wal.appends")
	cBytes     = obs.Default.Counter("wal.append_bytes")
	cRotations = obs.Default.Counter("wal.rotations")
	cRecovered = obs.Default.Counter("wal.recovered_records")
	cTornTails = obs.Default.Counter("wal.torn_tails")
	cRetracted = obs.Default.Counter("wal.retracted_records")
)

const (
	segMagic   = "S3PGWAL1"
	segVersion = 1
	// segHeaderSize is magic(8) + version(4) + sequence(8).
	segHeaderSize = 20

	recMagic = "S3WR"
	// recHeaderSize is magic(4) + len(4) + crc(4) + lsn(8) + kind(1).
	recHeaderSize = 21

	// MaxRecordBytes bounds one record's payload; a frame claiming more is
	// corruption, not a large batch (the service caps request bodies far
	// below this).
	MaxRecordBytes = 256 << 20

	// DefaultSegmentBytes is the rotation threshold when Options leaves it 0.
	DefaultSegmentBytes = 4 << 20
)

// Record kinds.
const (
	// KindUpdate carries an encoded rdf.Delta; its LSN is the batch's
	// acknowledgment token (dense, starting at 1).
	KindUpdate Kind = 1
	// KindApplied carries a digest of the PG delta produced by applying the
	// update with the same LSN — a replay determinism check, not a
	// correctness dependency (replay re-derives state from UPDATE records
	// alone).
	KindApplied Kind = 2
)

// Kind tags a record's payload interpretation.
type Kind uint8

// Record is one recovered or appended log entry.
type Record struct {
	LSN     uint64
	Kind    Kind
	Payload []byte
}

// Sentinel errors.
var (
	// ErrCorrupt marks damage that is not a torn tail: the log refuses to
	// open rather than silently dropping acknowledged batches.
	ErrCorrupt = errors.New("wal: corrupt log")
	// ErrFailed is returned by appends after a previous append failed
	// mid-write: the active segment may hold a torn frame, so the log can
	// only be trusted again after a reopen (which truncates the tear).
	ErrFailed = errors.New("wal: log failed; reopen to recover")
	// ErrClosed is returned by appends after Close.
	ErrClosed = errors.New("wal: log closed")
)

// Options configures Open.
type Options struct {
	// FS is the filesystem seam (nil → the real filesystem); internal/faultio
	// provides a fault-injecting implementation.
	FS ckpt.FS
	// SegmentBytes is the size past which the active segment is rotated
	// (0 → DefaultSegmentBytes).
	SegmentBytes int64
}

// Log is an open write-ahead log. Appends are serialized: AppendUpdate and
// AppendApplied each make one write and one fsync before returning, and a
// batch holds the log from Begin to its Commit or Abort. Log is safe for
// concurrent use.
type Log struct {
	dir  string
	fsys ckpt.FS
	opts Options

	mu          sync.Mutex
	f           ckpt.File
	path        string
	seq         uint64
	size        int64
	lastUpdate  uint64
	lastApplied uint64
	// tail is where the log's last record starts while that record is an
	// UPDATE with no APPLIED record: what Abort and Retract cut off. Its
	// path is empty otherwise.
	tail frameAt
	// unsynced is set while the active segment holds a batch's APPLIED
	// record that no fsync has covered yet.
	unsynced bool
	synced   chan error // the result of a batch's fsync
	failed   error
	closed   bool
}

// frameAt locates a frame: its segment file and its offset in it.
type frameAt struct {
	path string
	off  int64
}

// Batch is an update batch between Begin and its Commit or Abort, one of
// which must be called exactly once. While it is open the log is locked.
type Batch struct {
	// LSN is the batch's LSN, the token its acknowledgment carries.
	LSN uint64
	l   *Log
}

// Open recovers the log at dir (creating it if absent) and returns the
// surviving records in append order. A torn final record is truncated from
// the final segment (the crash-mid-append case); any other damage fails with
// ErrCorrupt. After Open the log is ready for appends.
func Open(dir string, opts Options) (*Log, []Record, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = ckpt.OSFS
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	segs, err := listSegments(fsys, dir, true)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{dir: dir, fsys: fsys, opts: opts, synced: make(chan error, 1)}
	var recs []Record
	for i, seg := range segs {
		last := i == len(segs)-1
		segRecs, validLen, torn, err := parseSegment(seg.path, seg.seq, last, l.lastUpdate)
		if err != nil {
			return nil, nil, err
		}
		if torn {
			cTornTails.Inc()
			if err := truncateFile(seg.path, validLen); err != nil {
				return nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", seg.path, err)
			}
		}
		for _, r := range segRecs {
			if err := l.admitRecovered(r, seg.path); err != nil {
				return nil, nil, err
			}
		}
		if n := len(segRecs); n > 0 {
			l.tail = frameAt{}
			if r := segRecs[n-1]; r.Kind == KindUpdate {
				l.tail = frameAt{seg.path, validLen - int64(recHeaderSize+len(r.Payload))}
			}
		}
		recs = append(recs, segRecs...)
	}
	cRecovered.Add(int64(len(recs)))
	// Resume into a fresh segment rather than appending to a recovered one:
	// every writable file then flows through fsys.CreateTemp (the fault
	// seam), and a recovered segment is never appended to again (Retract
	// may still cut its last record). A header-only final segment is removed
	// first so repeated restarts do not accumulate empty segments.
	nextSeq := uint64(1)
	if n := len(segs); n > 0 {
		nextSeq = segs[n-1].seq + 1
		if tail := segs[n-1]; tailIsEmpty(tail.path) {
			if err := fsys.Remove(tail.path); err == nil {
				nextSeq = tail.seq
			}
		}
	}
	if err := l.openSegment(nextSeq); err != nil {
		return nil, nil, err
	}
	return l, recs, nil
}

// admitRecovered folds one recovered record into the log's LSN state,
// enforcing the invariants appends maintain: update LSNs are dense from 1,
// applied LSNs are strictly increasing and never ahead of the updates.
func (l *Log) admitRecovered(r Record, path string) error {
	switch r.Kind {
	case KindUpdate:
		if r.LSN != l.lastUpdate+1 {
			return fmt.Errorf("%w: %s: update LSN %d breaks the dense sequence (last %d)",
				ErrCorrupt, path, r.LSN, l.lastUpdate)
		}
		l.lastUpdate = r.LSN
	case KindApplied:
		if r.LSN <= l.lastApplied || r.LSN > l.lastUpdate {
			return fmt.Errorf("%w: %s: applied LSN %d out of order (applied %d, update %d)",
				ErrCorrupt, path, r.LSN, l.lastApplied, l.lastUpdate)
		}
		l.lastApplied = r.LSN
	default:
		return fmt.Errorf("%w: %s: unknown record kind %d (LSN %d)", ErrCorrupt, path, r.Kind, r.LSN)
	}
	return nil
}

// Begin starts an update batch: it writes the batch's UPDATE record, carrying
// update (an encoded rdf.Delta), at the next LSN, and starts the record's
// fsync, which runs while the caller applies the batch. The fsync also makes
// the previous batch's APPLIED record durable. The log stays locked until
// the batch ends with Commit or Abort, so the batch's two records stay
// adjacent in one segment (rotation happens only before an UPDATE record);
// every other call on the log waits. On error no batch is open.
func (l *Log) Begin(update []byte) (*Batch, error) {
	l.mu.Lock()
	lsn := l.lastUpdate + 1
	off, err := l.writeLocked(Record{LSN: lsn, Kind: KindUpdate, Payload: update}, true)
	if err != nil {
		l.mu.Unlock()
		return nil, err
	}
	l.lastUpdate, l.tail, l.unsynced = lsn, frameAt{l.path, off}, false
	go func(f ckpt.File) { l.synced <- f.Sync() }(l.f)
	return &Batch{LSN: lsn, l: l}, nil
}

// Commit ends a batch the caller applied: it writes the APPLIED record,
// carrying applied (a digest of the batch's effect), while the UPDATE
// record's fsync may still run, then waits for that fsync. When Commit
// returns nil the UPDATE record is durable and the LSN may be acknowledged.
// The APPLIED record is synced by the next batch's fsync, or before a
// rotation, or at Close.
func (b *Batch) Commit(applied []byte) error {
	l := b.l
	defer l.mu.Unlock()
	_, werr := l.writeLocked(Record{LSN: b.LSN, Kind: KindApplied, Payload: applied}, false)
	if werr == nil {
		l.lastApplied, l.tail, l.unsynced = b.LSN, frameAt{}, true
	}
	if err := l.awaitSync(b.LSN); err != nil {
		return err
	}
	return werr
}

// Abort ends a batch the caller could not apply: once the UPDATE record's
// fsync has returned, it cuts the record off the segment, fsyncs the cut and
// gives the LSN back. The log then holds no record of the batch, and the
// next batch takes its LSN.
func (b *Batch) Abort() error {
	l := b.l
	defer l.mu.Unlock()
	if err := l.awaitSync(b.LSN); err != nil {
		return err
	}
	return l.retractLocked()
}

// awaitSync waits, under l.mu, for the fsync Begin started; the goroutine
// running it takes no lock, so the wait ends. A failure poisons the log.
func (l *Log) awaitSync(lsn uint64) error {
	if err := <-l.synced; err != nil {
		l.failed = err
		return fmt.Errorf("wal: append LSN %d: sync: %w", lsn, err)
	}
	return nil
}

// Retract removes the UPDATE record at lsn, which must be the log's last
// record and have no APPLIED record: an update Open recovered that the
// caller's replay rejects, which was therefore never acknowledged. The cut
// is fsynced, and the next batch takes lsn.
func (l *Log) Retract(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if l.tail.path == "" || lsn != l.lastUpdate {
		return fmt.Errorf("wal: retract LSN %d: not the last record, an UPDATE without its APPLIED record (last update %d)",
			lsn, l.lastUpdate)
	}
	return l.retractLocked()
}

// retractLocked cuts the log's last record, the UPDATE record at l.tail, and
// fsyncs the cut. A failure poisons the log.
func (l *Log) retractLocked() error {
	t := l.tail
	var err error
	if t.path != l.path {
		err = truncateFile(t.path, t.off) // a recovered segment
	} else if err = l.f.Truncate(t.off); err == nil {
		// The next write goes where the record began, not past a hole.
		if _, err = l.f.Seek(t.off, io.SeekStart); err == nil {
			err = l.f.Sync()
		}
		l.size = t.off
	}
	if err != nil {
		l.failed = err
		return fmt.Errorf("wal: retract LSN %d: %w", l.lastUpdate, err)
	}
	l.lastUpdate--
	l.tail = frameAt{}
	cRetracted.Inc()
	return nil
}

// AppendUpdate appends an UPDATE record carrying payload (an encoded
// rdf.Delta) alone and returns its LSN. The record is fsynced before the
// call returns.
func (l *Log) AppendUpdate(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.lastUpdate + 1
	off, err := l.writeLocked(Record{LSN: lsn, Kind: KindUpdate, Payload: payload}, true)
	if err == nil {
		err = l.syncLocked(lsn)
	}
	if err != nil {
		return 0, err
	}
	l.lastUpdate, l.tail = lsn, frameAt{l.path, off}
	return lsn, nil
}

// AppendApplied appends an APPLIED record alone, confirming the update at
// lsn with a digest of its effect (see KindApplied). The record is fsynced
// before the call returns.
func (l *Log) AppendApplied(lsn uint64, digest []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn <= l.lastApplied || lsn > l.lastUpdate {
		return fmt.Errorf("wal: applied LSN %d out of order (applied %d, update %d)",
			lsn, l.lastApplied, l.lastUpdate)
	}
	_, err := l.writeLocked(Record{LSN: lsn, Kind: KindApplied, Payload: digest}, true)
	if err == nil {
		err = l.syncLocked(lsn)
	}
	if err != nil {
		return err
	}
	l.lastApplied, l.tail = lsn, frameAt{}
	return nil
}

// Close finalizes the active segment, first syncing the last batch's APPLIED
// record if no fsync has covered it. Further appends return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	var err error
	if l.unsynced {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// usableLocked reports why the log takes no more appends, if it does not.
func (l *Log) usableLocked() error {
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return fmt.Errorf("%w (cause: %v)", ErrFailed, l.failed)
	}
	return nil
}

// writeLocked frames r and writes it at the end of the active segment, and
// returns the offset the frame starts at. With rotate it first opens the
// next segment when the active one is over the threshold; a batch's APPLIED
// record is written without, so it stays beside its UPDATE record. A failed
// write poisons the log (the segment may now end in a torn frame, which only
// a reopen's recovery may repair).
func (l *Log) writeLocked(r Record, rotate bool) (int64, error) {
	if err := l.usableLocked(); err != nil {
		return 0, err
	}
	if len(r.Payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record payload %d bytes exceeds %d", len(r.Payload), MaxRecordBytes)
	}
	if rotate && l.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			if l.failed != nil {
				// The old segment's fsync failed, or the next segment never
				// opened: rotateLocked poisoned the log.
				return 0, fmt.Errorf("wal: append LSN %d: rotate: %w", r.LSN, err)
			}
			// Close failed with the handle still set: the current segment
			// stays active (merely oversized) and rotation is retried next
			// time.
		} else {
			cRotations.Inc()
		}
	}
	buf := appendFrame(make([]byte, 0, recHeaderSize+len(r.Payload)), r)
	if _, err := l.f.Write(buf); err != nil {
		l.failed = err
		return 0, fmt.Errorf("wal: append LSN %d: %w", r.LSN, err)
	}
	off := l.size
	l.size += int64(len(buf))
	cAppends.Inc()
	cBytes.Add(int64(len(buf)))
	return off, nil
}

// syncLocked fsyncs the active segment; a failure poisons the log.
func (l *Log) syncLocked(lsn uint64) error {
	if err := l.f.Sync(); err != nil {
		l.failed = err
		return fmt.Errorf("wal: append LSN %d: sync: %w", lsn, err)
	}
	l.unsynced = false
	return nil
}

// rotateLocked finalizes the active segment and opens the next one. A batch's
// APPLIED record the segment ends with is synced first: no later fsync
// reaches this file.
func (l *Log) rotateLocked() error {
	if l.unsynced {
		if err := l.syncLocked(l.lastApplied); err != nil {
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		// The closed-but-unrotated segment is still fully synced; treat the
		// close error as a failed rotation only.
		return err
	}
	l.f = nil
	if err := l.openSegment(l.seq + 1); err != nil {
		// Reopen is impossible through ckpt.FS (no append mode); the log is
		// wedged until reopened from disk.
		l.failed = err
		return err
	}
	return nil
}

// openSegment atomically creates segment seq and makes it the append target:
// temp file → header → fsync → rename → dir fsync. The file handle from
// CreateTemp stays open across the rename, so appends keep flowing through
// the fault-injection seam.
func (l *Log) openSegment(seq uint64) error {
	path := filepath.Join(l.dir, segmentName(seq))
	f, err := l.fsys.CreateTemp(l.dir, segmentName(seq)+".tmp-*")
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", path, err)
	}
	hdr := make([]byte, segHeaderSize)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], segVersion)
	binary.LittleEndian.PutUint64(hdr[12:20], seq)
	cleanup := func(err error) error {
		f.Close()
		l.fsys.Remove(f.Name())
		return fmt.Errorf("wal: create segment %s: %w", path, err)
	}
	if _, err := f.Write(hdr); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := l.fsys.Rename(f.Name(), path); err != nil {
		return cleanup(err)
	}
	if err := l.fsys.SyncDir(l.dir); err != nil {
		// The rename is visible; only its durability is in doubt. Refuse the
		// segment rather than risk it vanishing after a power loss.
		f.Close()
		return fmt.Errorf("wal: create segment %s: sync dir: %w", path, err)
	}
	l.f = f
	l.path = path
	l.seq = seq
	l.size = segHeaderSize
	return nil
}

// appendFrame appends one record in the framing documented at the top of
// the file.
func appendFrame(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(dst, recMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Payload)))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // the CRC, below
	dst = binary.LittleEndian.AppendUint64(dst, r.LSN)
	dst = append(append(dst, byte(r.Kind)), r.Payload...)
	binary.LittleEndian.PutUint32(dst[start+8:], crc32.ChecksumIEEE(dst[start+12:]))
	return dst
}

// parseFrame decodes the record at the start of data, returning the record
// and total frame length. A nil error means the frame is fully intact.
func parseFrame(data []byte) (Record, int, error) {
	if len(data) < recHeaderSize {
		return Record{}, 0, fmt.Errorf("short frame header (%d bytes)", len(data))
	}
	if string(data[:4]) != recMagic {
		return Record{}, 0, fmt.Errorf("bad record magic %q", data[:4])
	}
	n := binary.LittleEndian.Uint32(data[4:8])
	if n > MaxRecordBytes {
		return Record{}, 0, fmt.Errorf("implausible payload length %d", n)
	}
	total := recHeaderSize + int(n)
	if len(data) < total {
		return Record{}, 0, fmt.Errorf("frame extends past end of segment (%d of %d bytes)", len(data), total)
	}
	want := binary.LittleEndian.Uint32(data[8:12])
	if got := crc32.ChecksumIEEE(data[12:total]); got != want {
		return Record{}, 0, fmt.Errorf("record crc %08x, want %08x", got, want)
	}
	return Record{
		LSN:     binary.LittleEndian.Uint64(data[12:20]),
		Kind:    Kind(data[20]),
		Payload: append([]byte(nil), data[recHeaderSize:total]...),
	}, total, nil
}

// parseSegment reads and validates one segment file. lastUpdate is the LSN
// of the last UPDATE record of the segments before it. On a frame error it
// applies the torn-tail policy: damage at the very end of the final segment,
// or one of the torn shapes tornTail accepts there, is a torn append (report torn=true
// with the length of the valid prefix); damage anywhere else — earlier
// segments, or damage followed by any other valid frame — is ErrCorrupt.
func parseSegment(path string, wantSeq uint64, last bool, lastUpdate uint64) (recs []Record, validLen int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: read %s: %w", path, err)
	}
	if len(data) < segHeaderSize || string(data[:8]) != segMagic {
		return nil, 0, false, fmt.Errorf("%w: %s: bad segment header", ErrCorrupt, path)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != segVersion {
		return nil, 0, false, fmt.Errorf("%w: %s: unsupported segment version %d", ErrCorrupt, path, v)
	}
	if seq := binary.LittleEndian.Uint64(data[12:20]); seq != wantSeq {
		return nil, 0, false, fmt.Errorf("%w: %s: header sequence %d does not match name", ErrCorrupt, path, seq)
	}
	off := segHeaderSize
	for off < len(data) {
		rec, n, perr := parseFrame(data[off:])
		if perr != nil {
			pending := len(recs) > 0 && recs[len(recs)-1].Kind == KindUpdate
			if !last || !tornTail(data, off, lastUpdate, pending) {
				return nil, 0, false, fmt.Errorf("%w: %s: offset %d: %v", ErrCorrupt, path, off, perr)
			}
			return recs, int64(off), true, nil
		}
		if rec.Kind == KindUpdate {
			lastUpdate = rec.LSN
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, int64(off), false, nil
}

// tornTail reports whether the damage at off, in the final segment, is what
// a crash mid-append leaves. Either no intact frame starts after off, or the
// damage reads as unwritten storage and is followed only by frames of the
// LSN after lastUpdate (the last intact UPDATE, n), in one of two shapes: an
// APPLIED(n+1) alone, the second half of a batch whose UPDATE did not all
// reach the disk; or, when pending says the segment's last intact record is
// UPDATE(n), an UPDATE(n+1) and maybe its APPLIED, behind the APPLIED(n) that
// was written but not yet synced when UPDATE(n+1)'s fsync began. Either way
// that fsync never finished. Any other intact frame after the damage means
// records were lost in the middle.
func tornTail(data []byte, off int, lastUpdate uint64, pending bool) bool {
	var found []Record
	at := 0 // where found[0] starts
	for from := off + 1; from < len(data) && len(found) < 3; from++ {
		i := bytes.Index(data[from:], []byte(recMagic))
		if i < 0 {
			break
		}
		from += i
		if r, _, err := parseFrame(data[from:]); err == nil {
			if len(found) == 0 {
				at = from
			}
			found = append(found, r)
		}
	}
	if len(found) == 0 {
		return true
	}
	if len(found) > 2 || !unwritten(data, off, at) {
		return false
	}
	for _, r := range found {
		if r.LSN != lastUpdate+1 {
			return false
		}
	}
	if found[0].Kind == KindApplied {
		return len(found) == 1
	}
	return pending && (len(found) == 1 || found[1].Kind == KindApplied)
}

// sectorSize is the unit a disk writes whole; a power loss drops sectors,
// never parts of one.
const sectorSize = 512

// unwritten reports whether the damaged span data[off:end), which an intact
// frame follows at end, holds a sector a write never reached: one that
// overlaps the span, ends at or before end, and reads all zero over its part
// of the span (the file had grown past it; its new bytes never landed). A
// sector reaching end holds the intact frame's first bytes, so it was
// written. A frame that was fsynced whole has no such sector: the one
// holding its first byte holds the nonzero magic, and both payloads, an
// UPDATE's delta and an APPLIED digest, are text.
func unwritten(data []byte, off, end int) bool {
	for s := off - off%sectorSize; s+sectorSize <= end; s += sectorSize {
		if len(bytes.TrimLeft(data[max(s, off):s+sectorSize], "\x00")) == 0 {
			return true
		}
	}
	return false
}

// ReadRecords reads the records at dir without opening the log for appends:
// segments are parsed read-only, an incomplete frame (or torn shape) at the
// very tail of the final segment is skipped (never truncated — it may be a live writer's
// in-flight append, not a tear), and stray temp files are left in place. The
// recovered records pass the same LSN invariants Open enforces. Callers on a
// live log must pause appends for the duration of the read so no synced frame
// is captured half-written.
func ReadRecords(dir string) ([]Record, error) {
	segs, err := listSegments(ckpt.OSFS, dir, false)
	if err != nil {
		return nil, err
	}
	check := &Log{}
	var recs []Record
	for i, seg := range segs {
		segRecs, _, _, err := parseSegment(seg.path, seg.seq, i == len(segs)-1, check.lastUpdate)
		if err != nil {
			return nil, err
		}
		for _, r := range segRecs {
			if err := check.admitRecovered(r, seg.path); err != nil {
				return nil, err
			}
		}
		recs = append(recs, segRecs...)
	}
	return recs, nil
}

// segment is one discovered segment file.
type segment struct {
	seq  uint64
	path string
}

// listSegments enumerates the segment files in dir in sequence order. With
// cleanTemps it also removes stray temp files from interrupted segment
// creations (read-only callers must leave them alone — a live writer may be
// mid-creation).
func listSegments(fsys ckpt.FS, dir string, cleanTemps bool) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		var seq uint64
		if n, err := fmt.Sscanf(name, "wal-%08d.seg", &seq); n == 1 && err == nil && name == segmentName(seq) {
			segs = append(segs, segment{seq: seq, path: filepath.Join(dir, name)})
			continue
		}
		if cleanTemps && isTempName(name) {
			fsys.Remove(filepath.Join(dir, name)) // interrupted creation; best effort
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	for i := 1; i < len(segs); i++ {
		if segs[i].seq == segs[i-1].seq {
			return nil, fmt.Errorf("%w: duplicate segment sequence %d", ErrCorrupt, segs[i].seq)
		}
	}
	return segs, nil
}

func segmentName(seq uint64) string { return fmt.Sprintf("wal-%08d.seg", seq) }

func isTempName(name string) bool {
	base, _, ok := cutLast(name, ".tmp-")
	return ok && filepath.Ext(base) == ".seg"
}

func cutLast(s, sep string) (before, after string, found bool) {
	i := bytes.LastIndex([]byte(s), []byte(sep))
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// tailIsEmpty reports whether the segment holds a header and nothing else.
func tailIsEmpty(path string) bool {
	info, err := os.Stat(path)
	return err == nil && info.Size() == segHeaderSize
}

// truncateFile cuts path to n bytes and fsyncs, making a torn-tail repair
// durable before new appends land after it.
func truncateFile(path string, n int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Truncate(n); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
