// Out-of-core graph representation (DESIGN.md §10). Spill moves the three
// heavy resident structures of a Graph — the term dictionary's strings, the
// triple log, and the subject/predicate/object posting lists — into a
// CRC-framed on-disk generation, leaving behind a small in-memory "tail"
// that absorbs writes arriving after the spill. Slot indexes and term ids
// are preserved exactly, so every accessor (ForEach, Match, EncodedAt, CSV
// export, the evaluators) observes the same admission order and the same
// bytes as the fully-resident graph: spilling is invisible to output.
//
// A generation is a set of flat files sharing a "gen-N." prefix plus a
// MANIFEST committed last and atomically; a crash mid-spill leaves the
// previous MANIFEST (or none) pointing at complete files, never torn ones.
// All writes go through the ckpt.FS seam so faultio can inject faults.
package rdf

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"github.com/s3pg/s3pg/internal/ckpt"
	"github.com/s3pg/s3pg/internal/cow"
	"github.com/s3pg/s3pg/internal/obs"
)

// Spill observability (obs.Default registry): bytes written to spill files,
// posting segments written, and completed spill operations.
var (
	cSpillBytes    = obs.Default.Counter("rdf.spill.bytes")
	cSpillSegments = obs.Default.Counter("rdf.spill.segments")
	cSpillOps      = obs.Default.Counter("rdf.spill.ops")
)

// ErrNoSpill reports that a directory holds no committed spill generation.
var ErrNoSpill = errors.New("rdf: no committed spill generation")

const (
	spillVersion = 1
	manifestName = "MANIFEST"

	// pageTriples is the triple-log page granularity: 4096 triples = 48 KiB
	// payload per frame, a good unit for both sequential scans and the LRU.
	pageTriples    = 4096
	pageFrameBytes = frameOverhead + 12*pageTriples
	pageCacheSize  = 32

	// postSegTarget cuts a posting segment once its payload reaches this
	// size; segments are the unit of paged posting reads ("coldest segments
	// live on disk") and of CRC verification.
	postSegTarget = 128 << 10
	segCacheSize  = 32
)

// spillManifest is the commit record of a generation, written last.
type spillManifest struct {
	Version  int    `json:"version"`
	Gen      int    `json:"gen"`
	Prefix   string `json:"prefix"`
	Terms    int    `json:"terms"`
	Slots    int    `json:"slots"`
	NDead    int    `json:"n_dead"`
	Segments [3]int `json:"segments"` // posting segment count per index (s,p,o)
}

func (m *spillManifest) file(name string) string { return m.Prefix + name }

// graphSpill is the resident handle on a spilled generation: open files,
// bounded caches, and the mutable tombstone bitset over spilled slots.
type graphSpill struct {
	dir   string
	gen   int
	slots int
	log   *pageFile
	post  [3]*postIndex
	dead  []uint64 // bitset over [0,slots); mutable (Remove after spill)
	// deadShared is set while another handle may hold the bitset; setDead
	// copies it first.
	deadShared bool
}

// share returns a second handle over the same immutable generation, for
// Clone. The tombstone bitset is shared until either handle sets a bit.
func (sp *graphSpill) share() *graphSpill {
	sp.deadShared = true
	c := *sp
	return &c
}

func (sp *graphSpill) isDead(slot int) bool {
	return sp.dead[slot>>6]&(1<<(uint(slot)&63)) != 0
}

func (sp *graphSpill) setDead(slot int) {
	if sp.deadShared {
		sp.dead = append([]uint64(nil), sp.dead...)
		sp.deadShared = false
	}
	sp.dead[slot>>6] |= 1 << (uint(slot) & 63)
}

// pageFile reads the CRC-framed triple log. Frames are fixed-size (the last
// may be short), so a page's offset is computed, not indexed.
type pageFile struct {
	path  string
	f     *os.File
	slots int

	mu    sync.Mutex
	cache *lruCache[[]encTriple]
}

func openPageFile(path string, slots int) (*pageFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	p := &pageFile{path: path, f: f, slots: slots, cache: newLRU[[]encTriple](pageCacheSize)}
	runtime.SetFinalizer(p, func(p *pageFile) { p.f.Close() })
	return p, nil
}

func (p *pageFile) numPages() int { return (p.slots + pageTriples - 1) / pageTriples }

func (p *pageFile) decodePage(pg int) ([]encTriple, error) {
	payload, _, err := readFrameAt(p.f, int64(pg)*pageFrameBytes, 12*pageTriples)
	if err != nil {
		return nil, err
	}
	count := pageTriples
	if rem := p.slots - pg*pageTriples; rem < count {
		count = rem
	}
	if len(payload) != 12*count {
		return nil, &CorruptSpillError{File: p.path, Offset: int64(pg) * pageFrameBytes,
			Detail: fmt.Sprintf("page %d holds %d bytes, want %d", pg, len(payload), 12*count)}
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

// page returns decoded page pg through the LRU; corruption panics (see
// termArena.block for the rationale).
func (p *pageFile) page(pg int) []encTriple {
	p.mu.Lock()
	if ts, ok := p.cache.get(pg); ok {
		p.mu.Unlock()
		return ts
	}
	p.mu.Unlock()
	ts, err := p.decodePage(pg)
	if err != nil {
		panic(err.Error())
	}
	p.mu.Lock()
	p.cache.put(pg, ts)
	p.mu.Unlock()
	return ts
}

func (p *pageFile) triple(slot int) encTriple {
	return p.page(slot / pageTriples)[slot%pageTriples]
}

// postIndex reads one spilled posting-list file: delta/varint-encoded
// segments, each covering a contiguous ascending TermID range, found by
// binary search over the resident segment directory.
type postIndex struct {
	path string
	f    *os.File
	segs []postSeg

	mu    sync.Mutex
	cache *lruCache[map[TermID][]int32]
}

type postSeg struct {
	first, last TermID
	off         int64
}

func openPostIndex(path string, segs []postSeg) (*postIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	pi := &postIndex{path: path, f: f, segs: segs, cache: newLRU[map[TermID][]int32](segCacheSize)}
	runtime.SetFinalizer(pi, func(pi *postIndex) { pi.f.Close() })
	return pi, nil
}

// appendPostEntry encodes one term's posting list: term-id delta from the
// previous entry, list length, then slot deltas (slots ascend strictly, the
// admission-order invariant, so deltas are positive and varint-small).
func appendPostEntry(dst []byte, idDelta uint64, list []int32) []byte {
	dst = appendUvarint(dst, idDelta)
	dst = appendUvarint(dst, uint64(len(list)))
	prev := int32(0)
	for i, v := range list {
		if i == 0 {
			dst = appendUvarint(dst, uint64(v))
		} else {
			dst = appendUvarint(dst, uint64(v-prev))
		}
		prev = v
	}
	return dst
}

func decodePostSegment(payload []byte, path string, off int64) (map[TermID][]int32, TermID, TermID, error) {
	fail := func(err error) (map[TermID][]int32, TermID, TermID, error) {
		return nil, 0, 0, &CorruptSpillError{File: path, Offset: off, Detail: err.Error()}
	}
	n, pos, err := readUvarint(payload, 0)
	if err != nil {
		return fail(err)
	}
	m := make(map[TermID][]int32, n)
	var first, last, id TermID
	for i := uint64(0); i < n; i++ {
		d, p2, err := readUvarint(payload, pos)
		if err != nil {
			return fail(err)
		}
		pos = p2
		if i == 0 {
			id = TermID(d)
			first = id
		} else {
			id += TermID(d)
		}
		last = id
		ln, p3, err := readUvarint(payload, pos)
		if err != nil {
			return fail(err)
		}
		pos = p3
		list := make([]int32, ln)
		var slot int32
		for j := range list {
			v, p4, err := readUvarint(payload, pos)
			if err != nil {
				return fail(err)
			}
			pos = p4
			if j == 0 {
				slot = int32(v)
			} else {
				slot += int32(v)
			}
			list[j] = slot
		}
		m[id] = list
	}
	if pos != len(payload) {
		return fail(fmt.Errorf("segment has %d trailing bytes", len(payload)-pos))
	}
	return m, first, last, nil
}

// segment returns decoded segment i through the LRU; corruption panics.
func (pi *postIndex) segment(i int) map[TermID][]int32 {
	pi.mu.Lock()
	if m, ok := pi.cache.get(i); ok {
		pi.mu.Unlock()
		return m
	}
	pi.mu.Unlock()
	payload, _, err := readFrameAt(pi.f, pi.segs[i].off, maxSpillPayload)
	if err != nil {
		panic(err.Error())
	}
	m, _, _, derr := decodePostSegment(payload, pi.path, pi.segs[i].off)
	if derr != nil {
		panic(derr.Error())
	}
	pi.mu.Lock()
	pi.cache.put(i, m)
	pi.mu.Unlock()
	return m
}

// posting returns the spilled posting list for id (nil when empty). The
// returned slice is shared cache state and must not be mutated.
func (pi *postIndex) posting(id TermID) []int32 {
	lo, hi := 0, len(pi.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if pi.segs[mid].last < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(pi.segs) || pi.segs[lo].first > id {
		return nil
	}
	return pi.segment(lo)[id]
}

// countingWriter tracks spill bytes as they stream to a file.
type countingWriter struct {
	w io.Writer
	n *int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	*c.n += int64(n)
	return n, err
}

// Spilled reports whether the graph has a disk-resident generation.
func (g *Graph) Spilled() bool { return g.spill != nil }

// SpillDir returns the directory of the current spill generation, or "".
func (g *Graph) SpillDir() string {
	if g.spill == nil {
		return ""
	}
	return g.spill.dir
}

// TailLen returns the number of triple slots admitted since the last spill
// (everything, for an unspilled graph): the resident write tail a further
// Spill would move to disk.
func (g *Graph) TailLen() int { return len(g.triples) }

// Spill writes the graph's dictionary, triple log, and posting lists to a
// new on-disk generation under dir and swaps the in-memory representation
// to paged reads over it, freeing the resident copies. Ids, slot indexes,
// and every iteration order are preserved exactly; the operation is
// output-invisible. fsys is the commit seam (nil = the real filesystem);
// every file is written atomically and the MANIFEST — written last — is the
// commit point, so a crash at any moment leaves the previous generation (or
// none) intact, never a torn one.
//
// Spill is a mutation: like Add/Remove it must not run concurrently with
// readers. Re-spilling an already-spilled graph folds the tail into a fresh
// generation. Graphs sharing this graph's Dict observe the dictionary's
// representation change but keep identical id assignments.
func (g *Graph) Spill(dir string, fsys ckpt.FS) (err error) {
	if fsys == nil {
		fsys = ckpt.OSFS
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	gen := 1
	if old, lerr := readManifest(dir); lerr == nil {
		gen = old.Gen + 1
	}
	if g.spill != nil && g.spill.gen >= gen {
		gen = g.spill.gen + 1
	}
	man := &spillManifest{
		Version: spillVersion,
		Gen:     gen,
		Prefix:  fmt.Sprintf("gen-%d.", gen),
		Terms:   g.dict.Len(),
		Slots:   g.numSlots(),
		NDead:   g.nDead,
	}
	var written int64
	commit := func(name string, fn func(io.Writer) error) error {
		path := filepath.Join(dir, man.file(name))
		return ckpt.WriteFileAtomicFS(fsys, path, 0o644, func(w io.Writer) error {
			return fn(countingWriter{w, &written})
		})
	}

	// 1. Term arena + block offset index.
	var blockOff []int64
	if err := commit("terms.arena", func(w io.Writer) error {
		var werr error
		blockOff, werr = writeArena(w, man.Terms, func(i int) Term { return g.dict.Term(TermID(i)) })
		return werr
	}); err != nil {
		return err
	}
	if err := commit("terms.idx", func(w io.Writer) error {
		payload := make([]byte, 8*len(blockOff))
		for i, off := range blockOff {
			binary.LittleEndian.PutUint64(payload[8*i:], uint64(off))
		}
		_, werr := w.Write(appendFrame(nil, payload))
		return werr
	}); err != nil {
		return err
	}

	// 2. Triple log pages.
	if err := commit("triples.log", func(w io.Writer) error {
		payload := make([]byte, 12*pageTriples)
		var frame []byte
		for base := 0; base < man.Slots; base += pageTriples {
			end := base + pageTriples
			if end > man.Slots {
				end = man.Slots
			}
			pp := payload[:12*(end-base)]
			for i := base; i < end; i++ {
				e := g.encAt(i)
				b := pp[12*(i-base):]
				binary.LittleEndian.PutUint32(b, uint32(e.s))
				binary.LittleEndian.PutUint32(b[4:], uint32(e.p))
				binary.LittleEndian.PutUint32(b[8:], uint32(e.o))
			}
			frame = appendFrame(frame[:0], pp)
			if _, werr := w.Write(frame); werr != nil {
				return werr
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// 3. Posting-list segments, one file per index.
	var segDirs [3][]postSeg
	for k, name := range [3]string{"post.s", "post.p", "post.o"} {
		if err := commit(name, func(w io.Writer) error {
			var werr error
			segDirs[k], werr = g.writePostings(w, k, man.Terms)
			return werr
		}); err != nil {
			return err
		}
		man.Segments[k] = len(segDirs[k])
	}

	// 4. Tombstone bitset.
	nWords := (man.Slots + 63) / 64
	deadBits := make([]uint64, nWords)
	for i := 0; i < man.Slots; i++ {
		if g.slotDead(i) {
			deadBits[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	if err := commit("dead.bits", func(w io.Writer) error {
		payload := make([]byte, 8*nWords)
		for i, word := range deadBits {
			binary.LittleEndian.PutUint64(payload[8*i:], word)
		}
		_, werr := w.Write(appendFrame(nil, payload))
		return werr
	}); err != nil {
		return err
	}

	// 5. MANIFEST: the commit point. Unlike the data files it is not
	// generation-prefixed — it is the single pointer that names the live
	// generation, atomically replaced.
	if err := ckpt.WriteFileAtomicFS(fsys, filepath.Join(dir, manifestName), 0o644, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(man)
	}); err != nil {
		return err
	}

	// 6. Open the new generation and swap. The hash index is carried over
	// from the previous arena (ids are stable) and extended with the tail.
	arena, err := openArena(filepath.Join(dir, man.file("terms.arena")), man.Terms, blockOff, false)
	if err != nil {
		return err
	}
	runtime.SetFinalizer(arena, func(a *termArena) { a.close() })
	if prev := g.dict.arena; prev != nil {
		arena.hash, arena.over = prev.handOffIndex()
	}
	for i, t := range g.dict.terms {
		arena.addHash(t, g.dict.base+TermID(i))
	}
	log, err := openPageFile(filepath.Join(dir, man.file("triples.log")), man.Slots)
	if err != nil {
		return err
	}
	sp := &graphSpill{dir: dir, gen: gen, slots: man.Slots, log: log, dead: deadBits}
	for k, name := range [3]string{"post.s", "post.p", "post.o"} {
		sp.post[k], err = openPostIndex(filepath.Join(dir, man.file(name)), segDirs[k])
		if err != nil {
			return err
		}
	}

	oldGenFiles := g.spillGenFiles()
	g.dict.arena = arena
	g.dict.base = TermID(man.Terms)
	g.dict.idx = termIndex{}
	g.dict.terms = nil
	g.spill = sp
	g.triples = nil
	g.dead = nil
	g.deadShared = false
	g.present = make(map[encTriple]int32)
	g.post = [3]cow.Lists[int32]{}

	// Best-effort cleanup of the superseded generation. Clones sharing it
	// keep their open handles (the data outlives the directory entry).
	for _, f := range oldGenFiles {
		fsys.Remove(f)
	}

	segs := int64(man.Segments[0] + man.Segments[1] + man.Segments[2])
	cSpillBytes.Add(written)
	cSpillSegments.Add(segs)
	cSpillOps.Inc()
	return nil
}

// spillGenFiles lists the on-disk files of the graph's current generation.
func (g *Graph) spillGenFiles() []string {
	if g.spill == nil {
		return nil
	}
	prefix := fmt.Sprintf("gen-%d.", g.spill.gen)
	var out []string
	for _, name := range [...]string{"terms.arena", "terms.idx", "triples.log", "post.s", "post.p", "post.o", "dead.bits"} {
		out = append(out, filepath.Join(g.spill.dir, prefix+name))
	}
	return out
}

// writePostings streams index k's posting lists (merged spilled + tail, ids
// ascending) as CRC-framed segments and returns the segment directory.
func (g *Graph) writePostings(w io.Writer, k int, terms int) ([]postSeg, error) {
	var (
		segs     []postSeg
		payload  []byte
		frame    []byte
		off      int64
		nEntries uint64
		first    TermID
		prevID   TermID
	)
	flush := func(last TermID) error {
		if nEntries == 0 {
			return nil
		}
		full := appendUvarint(nil, nEntries)
		full = append(full, payload...)
		frame = appendFrame(frame[:0], full)
		if _, err := w.Write(frame); err != nil {
			return err
		}
		segs = append(segs, postSeg{first: first, last: last, off: off})
		off += int64(len(frame))
		payload = payload[:0]
		nEntries = 0
		return nil
	}
	for id := TermID(0); int(id) < terms; id++ {
		list := g.postingFor(k, id)
		if len(list) == 0 {
			continue
		}
		if nEntries == 0 {
			first = id
			payload = appendPostEntry(payload, uint64(id), list)
		} else {
			payload = appendPostEntry(payload, uint64(id-prevID), list)
		}
		prevID = id
		nEntries++
		if len(payload) >= postSegTarget {
			if err := flush(id); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(prevID); err != nil {
		return nil, err
	}
	return segs, nil
}

func readManifest(dir string) (*spillManifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	man := &spillManifest{}
	if err := json.Unmarshal(data, man); err != nil {
		return nil, fmt.Errorf("rdf: spill manifest %s: %w", filepath.Join(dir, manifestName), err)
	}
	if man.Version != spillVersion {
		return nil, fmt.Errorf("rdf: spill manifest version %d, want %d", man.Version, spillVersion)
	}
	return man, nil
}

// LoadSpilled opens the committed spill generation under dir as a Graph,
// verifying the CRC of every frame in every file before returning: a
// flipped bit anywhere fails the load loudly with a CorruptSpillError (and
// the offending file renamed aside, quarantined) rather than serving wrong
// data. The returned graph has an empty write tail; it reflects the state
// at spill time.
func LoadSpilled(dir string) (*Graph, error) {
	man, err := readManifest(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w under %s", ErrNoSpill, dir)
		}
		return nil, err
	}
	g, err := loadGeneration(dir, man)
	if err != nil {
		var ce *CorruptSpillError
		if errors.As(err, &ce) {
			os.Rename(ce.File, ce.File+".quarantined")
		}
		return nil, err
	}
	return g, nil
}

func loadGeneration(dir string, man *spillManifest) (*Graph, error) {
	path := func(name string) string { return filepath.Join(dir, man.file(name)) }

	// Block offset index.
	idxF, err := os.Open(path("terms.idx"))
	if err != nil {
		return nil, err
	}
	payload, _, err := readFrameAt(idxF, 0, maxSpillPayload)
	idxF.Close()
	if err != nil {
		return nil, err
	}
	wantBlocks := (man.Terms + arenaBlockTerms - 1) / arenaBlockTerms
	if len(payload) != 8*wantBlocks {
		return nil, &CorruptSpillError{File: path("terms.idx"), Offset: 0,
			Detail: fmt.Sprintf("offset table holds %d blocks, manifest implies %d", len(payload)/8, wantBlocks)}
	}
	blockOff := make([]int64, wantBlocks)
	for i := range blockOff {
		blockOff[i] = int64(binary.LittleEndian.Uint64(payload[8*i:]))
	}

	// Arena: full scan verifies every block and builds the hash index.
	arena, err := openArena(path("terms.arena"), man.Terms, blockOff, true)
	if err != nil {
		return nil, err
	}
	runtime.SetFinalizer(arena, func(a *termArena) { a.close() })

	// Triple log: verify every page.
	log, err := openPageFile(path("triples.log"), man.Slots)
	if err != nil {
		arena.close()
		return nil, err
	}
	for pg := 0; pg < log.numPages(); pg++ {
		if _, err := log.decodePage(pg); err != nil {
			return nil, err
		}
	}

	// Posting files: scan segments sequentially, verifying CRCs and
	// rebuilding each directory from the decoded id ranges.
	sp := &graphSpill{dir: dir, gen: man.Gen, slots: man.Slots}
	sp.log = log
	for k, name := range [3]string{"post.s", "post.p", "post.o"} {
		f, err := os.Open(path(name))
		if err != nil {
			return nil, err
		}
		size, err := f.Seek(0, io.SeekEnd)
		if err != nil {
			f.Close()
			return nil, err
		}
		var segs []postSeg
		for off := int64(0); off < size; {
			payload, next, err := readFrameAt(f, off, maxSpillPayload)
			if err != nil {
				f.Close()
				return nil, err
			}
			_, firstID, lastID, derr := decodePostSegment(payload, path(name), off)
			if derr != nil {
				f.Close()
				return nil, derr
			}
			segs = append(segs, postSeg{first: firstID, last: lastID, off: off})
			off = next
		}
		f.Close()
		if len(segs) != man.Segments[k] {
			return nil, &CorruptSpillError{File: path(name), Offset: 0,
				Detail: fmt.Sprintf("found %d segments, manifest records %d", len(segs), man.Segments[k])}
		}
		if sp.post[k], err = openPostIndex(path(name), segs); err != nil {
			return nil, err
		}
	}

	// Tombstones.
	deadF, err := os.Open(path("dead.bits"))
	if err != nil {
		return nil, err
	}
	payload, _, err = readFrameAt(deadF, 0, maxSpillPayload)
	deadF.Close()
	if err != nil {
		return nil, err
	}
	nWords := (man.Slots + 63) / 64
	if len(payload) != 8*nWords {
		return nil, &CorruptSpillError{File: path("dead.bits"), Offset: 0,
			Detail: fmt.Sprintf("bitset holds %d words, want %d", len(payload)/8, nWords)}
	}
	sp.dead = make([]uint64, nWords)
	nDead := 0
	for i := range sp.dead {
		word := binary.LittleEndian.Uint64(payload[8*i:])
		sp.dead[i] = word
		for ; word != 0; word &= word - 1 {
			nDead++
		}
	}
	if nDead != man.NDead {
		return nil, &CorruptSpillError{File: path("dead.bits"), Offset: 0,
			Detail: fmt.Sprintf("bitset has %d tombstones, manifest records %d", nDead, man.NDead)}
	}

	d := &Dict{arena: arena, base: TermID(man.Terms)}
	g := NewGraphWithDict(d)
	g.spill = sp
	g.nDead = man.NDead
	return g, nil
}
