package rdf

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// termArena is the disk-backed term dictionary of a spilled graph: every
// term interned before the spill lives in a string arena file as a sequence
// of CRC-framed blocks of arenaBlockTerms terms each, decoded on demand
// through a bounded LRU. What stays resident per spilled term is a block
// offset share (8 bytes / arenaBlockTerms) and one entry in the 64-bit hash
// index that serves Intern/Lookup — the strings themselves live on disk.
//
// The arena is immutable once written; terms interned after the spill go to
// the Dict's in-memory tail. Readers are goroutine-safe (the cache is
// mutex-guarded, file reads use ReadAt), which is what lets serve snapshots
// share one spilled generation across concurrent queries.
type termArena struct {
	path     string
	f        *os.File
	n        int     // spilled term count; ids [0,n) resolve here
	blockOff []int64 // file offset of each block frame

	// hash serves Lookup/Intern over spilled terms: 64-bit FNV-1a of the
	// term → id, with a rare overflow list when two terms collide. A hit is
	// confirmed by decoding the candidate term, so collisions cannot alias.
	hash map[uint64]TermID
	over map[uint64][]TermID
	// shared is set once a clone's dictionary reads this arena: the next
	// generation then extends a copy of the index instead of the maps.
	shared bool

	mu    sync.Mutex
	cache *lruCache[[]Term]
}

const (
	// arenaBlockTerms is the term-block granularity: large enough that the
	// resident offset table is negligible, small enough that decoding a
	// block to serve one term stays cheap and cache-friendly.
	arenaBlockTerms = 256
	// arenaCacheBlocks bounds resident decoded term blocks (~16k terms).
	arenaCacheBlocks = 64
	// maxSpillPayload caps any single frame a spill reader will allocate
	// for, so a corrupt length prefix cannot drive an OOM.
	maxSpillPayload = 1 << 30
)

// termHash64 is 64-bit FNV-1a over all identity fields of a term, with 0x1f
// separators so field boundaries cannot alias.
func termHash64(t Term) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(t.Kind)) * prime64
	for i := 0; i < len(t.Value); i++ {
		h = (h ^ uint64(t.Value[i])) * prime64
	}
	h = (h ^ 0x1f) * prime64
	for i := 0; i < len(t.Datatype); i++ {
		h = (h ^ uint64(t.Datatype[i])) * prime64
	}
	h = (h ^ 0x1f) * prime64
	for i := 0; i < len(t.Lang); i++ {
		h = (h ^ uint64(t.Lang[i])) * prime64
	}
	return h
}

// appendTermRecord serializes one term: kind byte plus three length-prefixed
// strings. Kind+3 fields is the whole identity of a Term (quoted triples
// keep their serialized form in Value), so this round-trips every term.
func appendTermRecord(dst []byte, t Term) []byte {
	dst = append(dst, byte(t.Kind))
	dst = appendUvarint(dst, uint64(len(t.Value)))
	dst = append(dst, t.Value...)
	dst = appendUvarint(dst, uint64(len(t.Datatype)))
	dst = append(dst, t.Datatype...)
	dst = appendUvarint(dst, uint64(len(t.Lang)))
	dst = append(dst, t.Lang...)
	return dst
}

func readTermRecord(buf []byte, pos int) (Term, int, error) {
	if pos >= len(buf) {
		return Term{}, 0, fmt.Errorf("truncated term record at %d", pos)
	}
	t := Term{Kind: Kind(buf[pos])}
	pos++
	readStr := func(pos int) (string, int, error) {
		n, pos, err := readUvarint(buf, pos)
		if err != nil {
			return "", 0, err
		}
		if pos+int(n) > len(buf) {
			return "", 0, fmt.Errorf("term string overruns block at %d", pos)
		}
		return string(buf[pos : pos+int(n)]), pos + int(n), nil
	}
	var err error
	if t.Value, pos, err = readStr(pos); err != nil {
		return Term{}, 0, err
	}
	if t.Datatype, pos, err = readStr(pos); err != nil {
		return Term{}, 0, err
	}
	if t.Lang, pos, err = readStr(pos); err != nil {
		return Term{}, 0, err
	}
	return t, pos, nil
}

// writeArena streams n terms (term(i) for i in [0,n)) as CRC-framed blocks
// to w and returns the frame offset of each block.
func writeArena(w io.Writer, n int, term func(int) Term) ([]int64, error) {
	var (
		blockOff []int64
		off      int64
		payload  []byte
		frame    []byte
	)
	for base := 0; base < n; base += arenaBlockTerms {
		end := base + arenaBlockTerms
		if end > n {
			end = n
		}
		payload = payload[:0]
		for i := base; i < end; i++ {
			payload = appendTermRecord(payload, term(i))
		}
		frame = appendFrame(frame[:0], payload)
		if _, err := w.Write(frame); err != nil {
			return nil, err
		}
		blockOff = append(blockOff, off)
		off += int64(len(frame))
	}
	return blockOff, nil
}

// openArena opens an arena file for reading. When buildIndex is true it
// scans every block — verifying all CRCs up front — and builds the hash
// index from the decoded terms; otherwise the caller supplies the index
// (the in-process spill path already has every hash).
func openArena(path string, n int, blockOff []int64, buildIndex bool) (*termArena, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	a := &termArena{
		path:     path,
		f:        f,
		n:        n,
		blockOff: blockOff,
		hash:     make(map[uint64]TermID, n),
		over:     make(map[uint64][]TermID),
		cache:    newLRU[[]Term](arenaCacheBlocks),
	}
	if buildIndex {
		for b := range blockOff {
			terms, err := a.decodeBlock(b)
			if err != nil {
				f.Close()
				return nil, err
			}
			for i, t := range terms {
				a.addHash(t, TermID(b*arenaBlockTerms+i))
			}
		}
	}
	return a, nil
}

func (a *termArena) addHash(t Term, id TermID) {
	h := termHash64(t)
	if _, ok := a.hash[h]; !ok {
		a.hash[h] = id
		return
	}
	a.over[h] = append(a.over[h], id)
}

// handOffIndex returns the hash index for the next generation to extend
// with its tail terms: the maps themselves, or copies when a clone still
// looks terms up through this arena.
func (a *termArena) handOffIndex() (map[uint64]TermID, map[uint64][]TermID) {
	if !a.shared {
		return a.hash, a.over
	}
	hash := make(map[uint64]TermID, len(a.hash))
	for h, id := range a.hash {
		hash[h] = id
	}
	over := make(map[uint64][]TermID, len(a.over))
	for h, ids := range a.over {
		over[h] = ids[:len(ids):len(ids)]
	}
	return hash, over
}

func (a *termArena) close() {
	if a.f != nil {
		a.f.Close()
	}
}

// decodeBlock reads and decodes block b straight from disk (no cache).
func (a *termArena) decodeBlock(b int) ([]Term, error) {
	payload, _, err := readFrameAt(a.f, a.blockOff[b], maxSpillPayload)
	if err != nil {
		return nil, err
	}
	count := arenaBlockTerms
	if rem := a.n - b*arenaBlockTerms; rem < count {
		count = rem
	}
	terms := make([]Term, 0, count)
	pos := 0
	for len(terms) < count {
		t, next, derr := readTermRecord(payload, pos)
		if derr != nil {
			return nil, &CorruptSpillError{File: a.path, Offset: a.blockOff[b], Detail: derr.Error()}
		}
		terms = append(terms, t)
		pos = next
	}
	return terms, nil
}

// block returns decoded block b through the LRU, panicking on corruption:
// the CRC was verified when the generation was loaded, so a mid-run failure
// means the bytes rotted underneath us and no correct answer exists.
func (a *termArena) block(b int) []Term {
	a.mu.Lock()
	if terms, ok := a.cache.get(b); ok {
		a.mu.Unlock()
		return terms
	}
	a.mu.Unlock()
	terms, err := a.decodeBlock(b)
	if err != nil {
		panic(err.Error())
	}
	a.mu.Lock()
	a.cache.put(b, terms)
	a.mu.Unlock()
	return terms
}

// term resolves a spilled term id.
func (a *termArena) term(id TermID) Term {
	return a.block(int(id) / arenaBlockTerms)[int(id)%arenaBlockTerms]
}

// lookup finds the id of a spilled term, if present.
func (a *termArena) lookup(t Term) (TermID, bool) {
	h := termHash64(t)
	id, ok := a.hash[h]
	if !ok {
		return 0, false
	}
	if a.term(id) == t {
		return id, true
	}
	for _, cand := range a.over[h] {
		if a.term(cand) == t {
			return cand, true
		}
	}
	return 0, false
}
