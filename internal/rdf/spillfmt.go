package rdf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
)

// This file holds the low-level on-disk encoding of a spill (DESIGN.md
// §10a): CRC-framed blocks, varint primitives, the error a bad frame
// surfaces as, and the small LRU that bounds how much of a spilled structure
// is resident at once.
//
// Every segment file is a sequence of frames:
//
//	[u32le payload length][payload][u32le CRC-32 (IEEE) of payload]
//
// A frame is the unit of both paged reads and integrity: a reader never
// hands out bytes whose checksum it has not verified, so a flipped bit on
// disk surfaces as ErrSpillCorrupt — loudly — instead of as wrong data. The
// directory that locates the frames lives only in the memory of the process
// that wrote the file; no other process reads a segment.

const frameOverhead = 8 // 4-byte length prefix + 4-byte CRC suffix

// ErrSpillCorrupt is the sentinel wrapped by every CRC/format failure on a
// spill file. Callers match it with errors.Is.
var ErrSpillCorrupt = errors.New("spill data corrupt")

// CorruptSpillError reports a spill frame that failed its integrity check
// on a read. The reader panics with it: the bytes this process wrote have
// changed underneath it, and no correct answer exists.
type CorruptSpillError struct {
	File   string // path of the corrupt file
	Offset int64  // frame offset at which the check failed
	Detail string
}

func (e *CorruptSpillError) Error() string {
	return fmt.Sprintf("rdf: spill file corrupt: %s: frame at byte %d: %s", e.File, e.Offset, e.Detail)
}

func (e *CorruptSpillError) Unwrap() error { return ErrSpillCorrupt }

// appendFrame wraps payload in a length+CRC frame and appends it to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(hdr[:], crc32.ChecksumIEEE(payload))
	return append(dst, hdr[:]...)
}

// readFrameAt reads and verifies the frame starting at off in f and returns
// its payload. maxPayload bounds the length prefix so a corrupt header
// cannot drive a huge allocation.
func readFrameAt(f *os.File, off int64, maxPayload int) ([]byte, error) {
	var hdr [4]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return nil, &CorruptSpillError{File: f.Name(), Offset: off, Detail: "short frame header: " + err.Error()}
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if int(n) > maxPayload {
		return nil, &CorruptSpillError{File: f.Name(), Offset: off,
			Detail: fmt.Sprintf("frame length %d exceeds limit %d", n, maxPayload)}
	}
	buf := make([]byte, int(n)+4)
	if _, err := f.ReadAt(buf, off+4); err != nil {
		return nil, &CorruptSpillError{File: f.Name(), Offset: off, Detail: "short frame body: " + err.Error()}
	}
	if got, sum := crc32.ChecksumIEEE(buf[:n]), binary.LittleEndian.Uint32(buf[n:]); got != sum {
		return nil, &CorruptSpillError{File: f.Name(), Offset: off,
			Detail: fmt.Sprintf("crc mismatch: stored %08x, computed %08x", sum, got)}
	}
	return buf[:n], nil
}

// uvarint helpers over byte slices (append-style write, cursor-style read).

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func readUvarint(buf []byte, pos int) (uint64, int, error) {
	v, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("truncated varint at %d", pos)
	}
	return v, pos + n, nil
}

// frameWriter streams frames to a segment file, tracking each one's offset.
type frameWriter struct {
	w   io.Writer
	off int64
	buf []byte
}

// frame writes payload as one frame and returns the offset it starts at.
func (fw *frameWriter) frame(payload []byte) (int64, error) {
	at := fw.off
	fw.buf = appendFrame(fw.buf[:0], payload)
	n, err := fw.w.Write(fw.buf)
	fw.off += int64(n)
	return at, err
}

// segment is one immutable spill file: the terms with ids [t0,t1), the
// triple slots [s0,s1) and the posting entries of those slots. The directory
// below is filled in while the file is written and kept only in memory.
// Handles are shared by every arena and graphSpill that lists the segment
// (clones included) and closed when the last of them is collected, so an
// unlinked segment stays readable.
type segment struct {
	path string
	f    *os.File
	tier int // times its contents have been folded

	t0, t1 TermID
	s0, s1 int

	blockOff []int64      // frame offset of each arenaBlockTerms-term block
	pageOff  int64        // offset of the first triple page; pages are fixed-size
	post     [3][]postDir // posting frames per index (s,p,o), ids ascending
	filter   tripleFilter // the triples of slots [s0,s1)
}

// postDir locates one posting frame and the id range it covers.
type postDir struct {
	first, last TermID
	off         int64
}

// open opens the committed file for reading.
func (sg *segment) open() (err error) {
	if sg.f, err = os.Open(sg.path); err == nil {
		runtime.SetFinalizer(sg, func(sg *segment) { sg.f.Close() })
	}
	return err
}

func (sg *segment) numPages() int { return (sg.s1 - sg.s0 + pageTriples - 1) / pageTriples }

func (sg *segment) corrupt(off int64, format string, args ...any) error {
	return &CorruptSpillError{File: sg.path, Offset: off, Detail: fmt.Sprintf(format, args...)}
}

// frameKey keys a per-graph LRU by (position of the segment in the graph's
// list, frame within the segment's section).
func frameKey(seg, frame int) uint64 { return uint64(seg)<<32 | uint64(uint32(frame)) }

// lruCache is a tiny LRU over spill frames (term blocks, posting frames,
// triple pages), keyed by frameKey. It is NOT goroutine-safe; owners guard
// it with their own mutex.
type lruCache[V any] struct {
	cap     int
	entries map[uint64]*lruEntry[V]
	head    *lruEntry[V] // most recent
	tail    *lruEntry[V] // least recent
}

type lruEntry[V any] struct {
	key        uint64
	val        V
	prev, next *lruEntry[V]
}

func newLRU[V any](capacity int) *lruCache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache[V]{cap: capacity, entries: make(map[uint64]*lruEntry[V], capacity)}
}

func (c *lruCache[V]) get(k uint64) (V, bool) {
	e, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.touch(e)
	return e.val, true
}

func (c *lruCache[V]) put(k uint64, v V) {
	if e, ok := c.entries[k]; ok {
		e.val = v
		c.touch(e)
		return
	}
	e := &lruEntry[V]{key: k, val: v}
	c.entries[k] = e
	c.pushFront(e)
	if len(c.entries) > c.cap {
		evict := c.tail
		c.unlink(evict)
		delete(c.entries, evict.key)
	}
}

func (c *lruCache[V]) touch(e *lruEntry[V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *lruCache[V]) pushFront(e *lruEntry[V]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *lruCache[V]) unlink(e *lruEntry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
