// Out-of-core graph representation (DESIGN.md §10). Spill moves the three
// heavy resident structures of a Graph — the term dictionary's strings, the
// triple log, and the subject/predicate/object posting lists — to disk,
// leaving behind a small in-memory "tail" that absorbs writes arriving after
// the spill. Slot indexes and term ids are preserved exactly, so every
// accessor (ForEach, Match, ForEachEncoded, CSV export, the evaluators)
// observes the same admission order and the same bytes as the fully-resident
// graph: spilling is invisible to output.
//
// The disk side is an append-only list of immutable segment files, one per
// spill, each holding only what the tail held. The files are scratch: only
// the process that wrote them reads them, through the directory it kept in
// memory, so a spill directory left by a dead process is garbage, not state.
// All writes go through the ckpt.FS seam so faultio can inject faults.
package rdf

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/s3pg/s3pg/internal/ckpt"
	"github.com/s3pg/s3pg/internal/cow"
	"github.com/s3pg/s3pg/internal/obs"
)

// Spill observability (obs.Default registry): bytes written to the spill
// directory, segment files written (folds included), and completed spills.
var (
	cSpillBytes    = obs.Default.Counter("rdf.spill.bytes")
	cSpillSegments = obs.Default.Counter("rdf.spill.segments")
	cSpillOps      = obs.Default.Counter("rdf.spill.ops")
)

// spillSeq numbers segment files process-wide, so no two spills of this
// process — a graph's, its clone's, another graph's — name the same file,
// whichever directories they share.
var spillSeq atomic.Int64

const (
	// spillFanIn is how many segments a tier holds before the next spill
	// folds them, with the tail, into one segment of the tier above. A byte
	// is rewritten once per tier and k spills reach ⌈log₉ k⌉ tiers, a read
	// fans out over at most spillFanIn segments per tier: 8 keeps a million
	// spills within 7 tiers and 56 segments.
	spillFanIn = 8

	// pageTriples is the triple-log page granularity: 4096 triples = 48 KiB
	// payload per frame, a good unit for both sequential scans and the LRU.
	pageTriples    = 4096
	pageFrameBytes = frameOverhead + 12*pageTriples
	pageCacheSize  = 32

	// postFrameTarget cuts a posting frame once its payload reaches this
	// size; frames are the unit of paged posting reads ("coldest frames live
	// on disk") and of CRC verification.
	postFrameTarget = 128 << 10
	postCacheSize   = 32
)

// graphSpill is the resident handle on a graph's spilled slots: the segment
// list and bounded caches over it. It is immutable (the caches are
// goroutine-safe), so clones share it; the tombstones of spilled slots are
// the graph's, like every other slot's.
type graphSpill struct {
	dir   string
	segs  []*segment // ascending, disjoint slot ranges covering [0,slots)
	slots int
	log   *pageLog
	post  [3]*postIndex
}

func newGraphSpill(dir string, segs []*segment, slots int) *graphSpill {
	sp := &graphSpill{dir: dir, segs: segs, slots: slots,
		log: &pageLog{segs: segs, cache: newLRU[[]encTriple](pageCacheSize)}}
	for k := range sp.post {
		sp.post[k] = &postIndex{k: k, segs: segs, cache: newLRU[*postFrame](postCacheSize)}
	}
	return sp
}

// spilledSlotOf finds the live spilled slot holding e; the graph must be
// spilled. A segment written before one of e's terms was interned cannot hold
// it, and segments ascend in t1, so a triple naming a term newer than the
// last spill returns before any read; nor can a segment whose filter rules e
// out, which is what most segments say of a triple being admitted. Within a
// segment the predicate's list — the longest — is fetched only when subject
// and object both occur there.
func (g *Graph) spilledSlotOf(e encTriple) (int32, bool) {
	sp, newest, key := g.spill, max(e.s, e.p, e.o), e.filterKey()
	for si := len(sp.segs) - 1; si >= 0 && newest < sp.segs[si].t1; si-- {
		if !sp.segs[si].filter.mayHold(key) {
			continue
		}
		s := sp.post[0].in(si, e.s)
		if len(s) == 0 {
			continue
		}
		o := sp.post[2].in(si, e.o)
		if len(o) == 0 {
			continue
		}
		for _, idx := range shortest(s, sp.post[1].in(si, e.p), o) {
			if !g.slotDead(int(idx)) && sp.log.triple(int(idx)) == e {
				return idx, true
			}
		}
	}
	return 0, false
}

// tripleFilter is a segment's Bloom filter over the triples in its slots,
// dead ones included, filterBitsPerSlot bits a slot: a triple sets four bits
// of one 64-bit word. A triple with one of its bits clear is in none of the
// segment's slots; one with all four set may be (about 1 absent triple in 50
// is), and is looked up in the segment's postings.
type tripleFilter []uint64

const filterBitsPerSlot = 10

// filterKey is where a triple lands in every tripleFilter: the spread whose
// top bits pick its word, and its four bits in that word.
type filterKey struct{ spread, bits uint64 }

func (e encTriple) filterKey() filterKey {
	h := e.mix()
	// The bits come from a second spread of h, so they do not follow the
	// top bits of h that pick the word.
	b := h * 0x9e3779b97f4a7c15
	return filterKey{h, 1<<(b>>58) | 1<<(b>>52&63) | 1<<(b>>46&63) | 1<<(b>>40&63)}
}

func newTripleFilter(slots int) tripleFilter {
	return make(tripleFilter, (filterBitsPerSlot*slots+63)/64+1)
}

func (f tripleFilter) word(k filterKey) *uint64 {
	i, _ := bits.Mul64(k.spread, uint64(len(f)))
	return &f[i]
}

func (f tripleFilter) add(k filterKey) { *f.word(k) |= k.bits }

// mayHold reports whether a triple with key k may be in the filter's slots.
func (f tripleFilter) mayHold(k filterKey) bool { return *f.word(k)&k.bits == k.bits }

// pageLog reads the spilled triple log: per segment, fixed-size CRC-framed
// pages (the last may be short), so a page's offset is computed, not indexed.
type pageLog struct {
	segs []*segment

	mu    sync.Mutex
	cache *lruCache[[]encTriple]
}

// readPage reads page pg of sg straight from disk (no cache).
func readPage(sg *segment, pg int) ([]encTriple, error) {
	off := sg.pageOff + int64(pg)*pageFrameBytes
	payload, err := readFrameAt(sg.f, off, 12*pageTriples)
	if err != nil {
		return nil, err
	}
	count := pageTriples
	if rem := sg.s1 - sg.s0 - pg*pageTriples; rem < count {
		count = rem
	}
	if len(payload) != 12*count {
		return nil, sg.corrupt(off, "page %d holds %d bytes, want %d", pg, len(payload), 12*count)
	}
	ts := make([]encTriple, count)
	for i := range ts {
		b := payload[12*i:]
		ts[i] = encTriple{
			s: TermID(binary.LittleEndian.Uint32(b)),
			p: TermID(binary.LittleEndian.Uint32(b[4:])),
			o: TermID(binary.LittleEndian.Uint32(b[8:])),
		}
	}
	return ts, nil
}

// page returns page pg of segment si through the LRU; corruption panics (see
// termArena.load for the rationale).
func (p *pageLog) page(si, pg int) []encTriple {
	key := frameKey(si, pg)
	p.mu.Lock()
	ts, ok := p.cache.get(key)
	p.mu.Unlock()
	if ok {
		return ts
	}
	ts, err := readPage(p.segs[si], pg)
	if err != nil {
		panic(err)
	}
	p.mu.Lock()
	p.cache.put(key, ts)
	p.mu.Unlock()
	return ts
}

func (p *pageLog) triple(slot int) encTriple {
	lo, hi := 0, len(p.segs)
	for lo < hi { // first segment ending past slot
		if mid := (lo + hi) / 2; p.segs[mid].s1 <= slot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	rel := slot - p.segs[lo].s0
	return p.page(lo, rel/pageTriples)[rel%pageTriples]
}

// postIndex reads one index (subject, predicate or object) of the spilled
// posting lists: per segment, delta/varint-encoded frames each covering a
// contiguous ascending TermID range, found by binary search over the
// segment's resident frame directory.
type postIndex struct {
	k    int
	segs []*segment

	mu    sync.Mutex
	cache *lruCache[*postFrame]
}

// postFrame is a decoded posting frame: ids ascending, the slots of ids[i]
// at slots[start[i]:start[i+1]].
type postFrame struct {
	ids   []TermID
	start []uint32
	slots []int32
}

func (f *postFrame) list(id TermID) []int32 {
	lo, hi := 0, len(f.ids)
	for lo < hi {
		if mid := (lo + hi) / 2; f.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(f.ids) || f.ids[lo] != id {
		return nil
	}
	return f.slots[f.start[lo]:f.start[lo+1]]
}

// postFrameEncoder builds posting frames: entry and slot counts, then per
// term the id delta from the previous entry, the list length, and the slot
// deltas (slots ascend strictly, the admission-order invariant, so deltas
// are positive and varint-small).
type postFrameEncoder struct {
	body           []byte
	entries, slots uint64
	first, prev    TermID
	prevSlot       int32
	payload        []byte
}

func (enc *postFrameEncoder) entry(id TermID, n int) {
	if enc.entries == 0 {
		enc.first, enc.prev = id, 0
	}
	enc.body = appendUvarint(enc.body, uint64(id-enc.prev))
	enc.body = appendUvarint(enc.body, uint64(n))
	enc.prev, enc.prevSlot = id, 0
	enc.entries++
	enc.slots += uint64(n)
}

func (enc *postFrameEncoder) list(l []int32) {
	for _, v := range l {
		enc.body = appendUvarint(enc.body, uint64(v-enc.prevSlot))
		enc.prevSlot = v
	}
}

// flush writes the pending frame, if any, and records it in dir.
func (enc *postFrameEncoder) flush(fw *frameWriter, dir *[]postDir) error {
	if enc.entries == 0 {
		return nil
	}
	enc.payload = appendUvarint(enc.payload[:0], enc.entries)
	enc.payload = appendUvarint(enc.payload, enc.slots)
	enc.payload = append(enc.payload, enc.body...)
	off, err := fw.frame(enc.payload)
	*dir = append(*dir, postDir{first: enc.first, last: enc.prev, off: off})
	enc.body, enc.entries, enc.slots = enc.body[:0], 0, 0
	return err
}

func decodePostFrame(payload []byte) (*postFrame, error) {
	n, pos, err := readUvarint(payload, 0)
	if err != nil {
		return nil, err
	}
	total, pos, err := readUvarint(payload, pos)
	if err != nil {
		return nil, err
	}
	// Every entry and every slot costs at least a byte.
	if n > uint64(len(payload)) || total > uint64(len(payload)) {
		return nil, fmt.Errorf("frame of %d bytes claims %d entries, %d slots", len(payload), n, total)
	}
	f := &postFrame{ids: make([]TermID, n), start: make([]uint32, n+1), slots: make([]int32, 0, total)}
	var id TermID
	for i := range f.ids {
		d, p2, err := readUvarint(payload, pos)
		if err != nil {
			return nil, err
		}
		ln, p3, err := readUvarint(payload, p2)
		if err != nil {
			return nil, err
		}
		pos = p3
		if i > 0 && d == 0 || ln == 0 || ln > total-uint64(len(f.slots)) {
			return nil, fmt.Errorf("entry %d: id delta %d, list length %d", i, d, ln)
		}
		id += TermID(d)
		f.ids[i] = id
		var slot int32
		for j := uint64(0); j < ln; j++ {
			v, p4, err := readUvarint(payload, pos)
			if err != nil {
				return nil, err
			}
			pos = p4
			slot += int32(v)
			f.slots = append(f.slots, slot)
		}
		f.start[i+1] = uint32(len(f.slots))
	}
	if pos != len(payload) || uint64(len(f.slots)) != total {
		return nil, fmt.Errorf("frame has %d trailing bytes, %d of %d slots", len(payload)-pos, len(f.slots), total)
	}
	return f, nil
}

// readPostFrame reads frame fi of sg's index k straight from disk.
func readPostFrame(sg *segment, k, fi int) (*postFrame, error) {
	d := sg.post[k][fi]
	payload, err := readFrameAt(sg.f, d.off, maxSpillPayload)
	if err != nil {
		return nil, err
	}
	f, err := decodePostFrame(payload)
	if err != nil {
		return nil, sg.corrupt(d.off, "%v", err)
	}
	if len(f.ids) == 0 || f.ids[0] != d.first || f.ids[len(f.ids)-1] != d.last {
		return nil, sg.corrupt(d.off, "posting frame does not cover ids [%d,%d] as its directory entry says", d.first, d.last)
	}
	return f, nil
}

// in returns id's posting list within segment si (nil when empty). The
// returned slice is shared cache state and must not be mutated.
func (pi *postIndex) in(si int, id TermID) []int32 {
	dir := pi.segs[si].post[pi.k]
	lo, hi := 0, len(dir)
	for lo < hi {
		if mid := (lo + hi) / 2; dir[mid].last < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(dir) || dir[lo].first > id {
		return nil
	}
	key := frameKey(si, lo)
	pi.mu.Lock()
	f, ok := pi.cache.get(key)
	pi.mu.Unlock()
	if !ok {
		var err error
		if f, err = readPostFrame(pi.segs[si], pi.k, lo); err != nil {
			panic(err) // see termArena.load
		}
		pi.mu.Lock()
		pi.cache.put(key, f)
		pi.mu.Unlock()
	}
	return f.list(id)
}

// posting returns the spilled posting list for id: the concatenation over
// segments, whose slot ranges ascend, so admission order is preserved. The
// result must not be mutated; it is cache state when one segment holds it.
func (pi *postIndex) posting(id TermID) []int32 {
	var out []int32
	owned := false
	for si, sg := range pi.segs {
		if id >= sg.t1 {
			continue
		}
		l := pi.in(si, id)
		switch {
		case len(l) == 0:
		case out == nil:
			out = l
		case !owned:
			out, owned = append(append([]int32(nil), out...), l...), true
		default:
			out = append(out, l...)
		}
	}
	return out
}

// postCursor walks one source of posting entries for an index in ascending
// id order: a segment's frames, read one at a time past the cache, or the
// resident tail.
type postCursor struct {
	sg    *segment // nil for the tail
	tail  *cow.Lists[int32]
	k     int
	fi, i int // next frame of sg and next entry of frame; next id of tail
	frame *postFrame

	id   TermID
	list []int32
	ok   bool
}

func (c *postCursor) advance() error {
	if c.sg == nil {
		id := c.tail.Next(c.i)
		if c.ok = id >= 0; c.ok {
			c.id, c.list, c.i = TermID(id), c.tail.At(id), id+1
		}
		return nil
	}
	for c.frame == nil || c.i == len(c.frame.ids) {
		if c.ok = c.fi < len(c.sg.post[c.k]); !c.ok {
			return nil
		}
		f, err := readPostFrame(c.sg, c.k, c.fi)
		if err != nil {
			return err
		}
		c.frame, c.fi, c.i = f, c.fi+1, 0
	}
	c.id, c.list, c.ok = c.frame.ids[c.i], c.frame.slots[c.frame.start[c.i]:c.frame.start[c.i+1]], true
	c.i++
	return nil
}

// writePostings merges index k of the folded segments and the tail into
// sg's posting section. The sources' slot ranges ascend in the order given,
// so a term's merged list is the concatenation of its lists in that order.
func (g *Graph) writePostings(fw *frameWriter, sg *segment, k int, folded []*segment) error {
	g.index()
	curs := make([]*postCursor, 0, len(folded)+1)
	for _, f := range folded {
		curs = append(curs, &postCursor{sg: f, k: k})
	}
	curs = append(curs, &postCursor{tail: &g.post[k]})
	for _, c := range curs {
		if err := c.advance(); err != nil {
			return err
		}
	}
	var enc postFrameEncoder
	for {
		id, n := noID, 0
		for _, c := range curs {
			switch {
			case !c.ok || c.id > id:
			case c.id < id:
				id, n = c.id, len(c.list)
			default:
				n += len(c.list)
			}
		}
		if id == noID {
			return enc.flush(fw, &sg.post[k])
		}
		enc.entry(id, n)
		for _, c := range curs {
			if c.ok && c.id == id {
				enc.list(c.list)
				if err := c.advance(); err != nil {
					return err
				}
			}
		}
		if len(enc.body) >= postFrameTarget {
			if err := enc.flush(fw, &sg.post[k]); err != nil {
				return err
			}
		}
	}
}

// writeSegment streams sg's sections — terms [t0,t1), slots [s0,s1), their
// postings — filling in sg's directory as the offsets are known and its
// filter as the slots go by, and returns the bytes written.
func (g *Graph) writeSegment(w io.Writer, sg *segment, folded []*segment) (int64, error) {
	fw := &frameWriter{w: w}
	var payload []byte
	d := g.dict
	for base := sg.t0; base < sg.t1; base += arenaBlockTerms {
		payload = payload[:0]
		for id := base; id < min(base+arenaBlockTerms, sg.t1); id++ {
			if id < d.base {
				payload = append(payload, d.arena.record(id)...)
			} else {
				payload = appendTermRecord(payload, d.Term(id))
			}
		}
		off, err := fw.frame(payload)
		if err != nil {
			return 0, err
		}
		sg.blockOff = append(sg.blockOff, off)
	}

	sg.pageOff = fw.off
	sg.filter = newTripleFilter(sg.s1 - sg.s0)
	for base := sg.s0; base < sg.s1; base += pageTriples {
		payload = payload[:0]
		for i := base; i < min(base+pageTriples, sg.s1); i++ {
			e := g.encAt(i)
			sg.filter.add(e.filterKey())
			payload = binary.LittleEndian.AppendUint32(payload, uint32(e.s))
			payload = binary.LittleEndian.AppendUint32(payload, uint32(e.p))
			payload = binary.LittleEndian.AppendUint32(payload, uint32(e.o))
		}
		if _, err := fw.frame(payload); err != nil {
			return 0, err
		}
	}

	for k := range sg.post {
		if err := g.writePostings(fw, sg, k, folded); err != nil {
			return 0, err
		}
	}
	return fw.off, nil
}

// foldStart picks what the next spill rewrites: segs[n:] are folded with the
// tail into one segment of the returned tier. While the newest tier has room
// that is nothing (n = len(segs), tier 0); a full tier is folded into the
// tier above, which may be full in turn.
func foldStart(segs []*segment) (n, tier int) {
	n = len(segs)
	for {
		m := n
		for m > 0 && segs[m-1].tier == tier {
			m--
		}
		if n-m < spillFanIn {
			return n, tier
		}
		n, tier = m, tier+1
	}
}

// Spilled reports whether part of the graph is disk-resident.
func (g *Graph) Spilled() bool { return g.spill != nil }

// TailLen returns the number of triple slots admitted since the last spill
// (everything, for an unspilled graph): the resident write tail a further
// Spill would move to disk.
func (g *Graph) TailLen() int { return len(g.triples) }

// Spill moves the graph's resident tail — the terms, triple slots and
// posting entries admitted since the last spill; everything, the first time —
// to a new segment file under dir and swaps the in-memory representation to
// paged reads over it, freeing the resident copies. Ids, slot indexes, and
// every iteration order are preserved exactly; the operation is
// output-invisible. fsys is the write seam (nil = the real filesystem). A
// spill is one scratch write, the segment's (ckpt.WriteScratchFileFS: renamed
// into place, never fsynced, since no other process reads it and a crash
// ends the only one that does); a failed one leaves the graph as it was, so
// the spill can be retried.
//
// When a tier of the segment list is full (see spillFanIn) the spill folds
// it: the one file it writes then holds those segments' contents as well as
// the tail, replaces them in the list, and the folded files are unlinked
// (open handles, a clone's included, keep reading them). The same rewrite,
// over the whole graph, serves the cases a tail-only segment cannot: dir is
// not where the graph last spilled, or the dictionary's spilled terms are not
// this graph's segments (a Dict shared with another spilled graph).
//
// Spill is a mutation: like Add/Remove it must not run concurrently with
// readers. Graphs sharing this graph's Dict observe the dictionary's
// representation change but keep identical id assignments.
func (g *Graph) Spill(dir string, fsys ckpt.FS) error {
	if fsys == nil {
		fsys = ckpt.OSFS
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sp, d := g.spill, g.dict
	var kept, folded []*segment
	tier := 0
	if sp != nil {
		folded = sp.segs
		if sp.dir == dir && d.arena != nil && slices.Equal(d.arena.segs, sp.segs) {
			var n int
			n, tier = foldStart(sp.segs)
			kept, folded = sp.segs[:n:n], sp.segs[n:]
		}
	}
	sg := &segment{path: filepath.Join(dir, fmt.Sprintf("seg-%06d", spillSeq.Add(1)-1)), tier: tier,
		t1: TermID(d.Len()), s1: g.numSlots()}
	if len(kept) > 0 {
		sg.t0, sg.s0 = kept[len(kept)-1].t1, kept[len(kept)-1].s1
	}

	var written int64
	if err := ckpt.WriteScratchFileFS(fsys, sg.path, func(w io.Writer) (err error) {
		written, err = g.writeSegment(w, sg, folded)
		return err
	}); err != nil {
		return err
	}
	if err := sg.open(); err != nil {
		return err
	}
	for _, f := range folded {
		if filepath.Dir(f.path) == filepath.Dir(sg.path) {
			fsys.Remove(f.path) // best effort; open handles keep reading
		}
	}
	segs := append(kept, sg)

	// Ids and slots keep their numbers, so the dictionary's index and the
	// tombstones stay as they are: only the tail's bytes and postings go.
	arena := newArena(segs)
	arena.valueBytes = d.ValueBytes()
	d.arena, d.base = arena, sg.t1
	d.recs, d.chunks, d.room = nil, [][]byte{nil}, nil
	g.spill = newGraphSpill(dir, segs, sg.s1)
	g.triples = nil
	g.present = &slotTable{}
	g.post = [3]cow.Lists[int32]{}
	g.indexed.Reset(0)

	cSpillBytes.Add(written)
	cSpillSegments.Inc()
	cSpillOps.Inc()
	return nil
}
