package rdf

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// termArena is the disk-backed term dictionary of a spilled graph: every
// term interned before the last spill lives in the term section of one of
// the spill's segments (ascending, disjoint id ranges) as
// CRC-framed blocks of arenaBlockTerms records, read on demand through a
// bounded LRU. What stays resident per spilled term is a block offset share
// (8 bytes / arenaBlockTerms) and its entry in the Dict's hash index, which
// confirms a spilled candidate here (arenaHas) — the strings themselves live
// on disk.
//
// An arena is immutable: a spill installs a new one over the longer segment
// list. Terms interned after the spill go to the Dict's in-memory tail.
// Readers are goroutine-safe (the cache is mutex-guarded, file reads use
// ReadAt), which is what lets serve snapshots share one spilled graph across
// concurrent queries.
type termArena struct {
	segs []*segment // ids [0, Dict.base) resolve here
	// valueBytes is the spilled terms' value bytes (Dict.ValueBytes).
	valueBytes int64

	mu    sync.Mutex
	cache *lruCache[*termBlock]
}

// termBlock is a cached term block: the frame's payload, CRC-verified and
// walked once when it entered the cache, plus where each record starts. A
// term is compared in place, or materialised one record at a time; what
// Term has materialised stays with the block, so a reader going back to the
// same terms (a scan's predicates, a subject's statements) builds each once
// per residency, as it would from a block decoded whole.
type termBlock struct {
	buf []byte
	off []uint32 // off[i] is the start of record i; one past the last is len(buf)
	// terms[i] is record i once its Kind is set. The table is made when Term
	// comes back to the block (again), not for its first read. Both are
	// guarded by termArena.mu.
	terms []Term
	again bool
}

const (
	// arenaBlockTerms is the term-block granularity: large enough that the
	// resident offset table is negligible, small enough that reading a
	// block to serve one term stays cheap and cache-friendly.
	arenaBlockTerms = 256
	// arenaCacheBlocks bounds resident term blocks (~16k terms).
	arenaCacheBlocks = 64
	// maxSpillPayload caps any single frame a spill reader will allocate
	// for, so a corrupt length prefix cannot drive an OOM.
	maxSpillPayload = 1 << 30
)

func newArena(segs []*segment) *termArena {
	return &termArena{segs: segs, cache: newLRU[*termBlock](arenaCacheBlocks)}
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

// walkTermRecords checks that buf is exactly count well-formed records and
// returns where each starts.
func walkTermRecords(buf []byte, count int) ([]uint32, error) {
	off := make([]uint32, count+1)
	pos := 0
	for i := 0; i < count; i++ {
		off[i] = uint32(pos)
		if pos >= len(buf) {
			return nil, fmt.Errorf("truncated term record at %d", pos)
		}
		pos++ // kind
		for f := 0; f < 3; f++ {
			if pos >= len(buf) {
				return nil, fmt.Errorf("truncated term record at %d", pos)
			}
			n, next := uint64(buf[pos]), pos+1
			if n >= 0x80 { // a string of 128 bytes or more: the general decoder
				var err error
				if n, next, err = readUvarint(buf, pos); err != nil {
					return nil, err
				}
			}
			if n > uint64(len(buf)-next) {
				return nil, fmt.Errorf("term string overruns block at %d", next)
			}
			pos = next + int(n)
		}
	}
	if pos != len(buf) {
		return nil, fmt.Errorf("term block has %d trailing bytes", len(buf)-pos)
	}
	off[count] = uint32(pos)
	return off, nil
}

// field splits the length-prefixed string at the head of rec from the rest.
// The lengths were checked when the block was walked.
func field(rec []byte) (str, rest []byte) {
	n, w := binary.Uvarint(rec)
	return rec[w : w+int(n)], rec[w+int(n):]
}

// key returns record i's fields, in place.
func (b *termBlock) key(i int) termKey[[]byte] {
	rec := b.buf[b.off[i]:b.off[i+1]]
	k := termKey[[]byte]{Kind: Kind(rec[0])}
	k.Value, rec = field(rec[1:])
	k.Datatype, rec = field(rec)
	k.Lang, _ = field(rec)
	return k
}

// term materialises record i.
func (b *termBlock) term(i int) Term {
	k := b.key(i)
	return Term{Kind: k.Kind, Value: string(k.Value), Datatype: string(k.Datatype), Lang: string(k.Lang)}
}

// readTermBlock reads block b of sg straight from disk (no cache).
func readTermBlock(sg *segment, b int) (*termBlock, error) {
	payload, err := readFrameAt(sg.f, sg.blockOff[b], maxSpillPayload)
	if err != nil {
		return nil, err
	}
	count := arenaBlockTerms
	if rem := int(sg.t1-sg.t0) - b*arenaBlockTerms; rem < count {
		count = rem
	}
	off, err := walkTermRecords(payload, count)
	if err != nil {
		return nil, sg.corrupt(sg.blockOff[b], "%v", err)
	}
	return &termBlock{buf: payload, off: off}, nil
}

// where resolves id to its segment's position in the list, its block within
// the segment, and its index within the block.
func (a *termArena) where(id TermID) (si, b, i int) {
	lo, hi := 0, len(a.segs)
	for lo < hi { // first segment ending past id
		if mid := (lo + hi) / 2; a.segs[mid].t1 <= id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	rel := int(id - a.segs[lo].t0)
	return lo, rel / arenaBlockTerms, rel % arenaBlockTerms
}

// load reads a block into the cache, panicking with the *CorruptSpillError
// on a failed check: this process wrote the bytes, so a mismatch means they
// changed underneath it and no correct answer exists.
func (a *termArena) load(si, b int) *termBlock {
	blk, err := readTermBlock(a.segs[si], b)
	if err != nil {
		panic(err)
	}
	a.mu.Lock()
	a.cache.put(frameKey(si, b), blk)
	a.mu.Unlock()
	return blk
}

// locate returns the cached block holding id and id's index in it.
func (a *termArena) locate(id TermID) (*termBlock, int) {
	si, b, i := a.where(id)
	a.mu.Lock()
	blk, ok := a.cache.get(frameKey(si, b))
	a.mu.Unlock()
	if !ok {
		blk = a.load(si, b)
	}
	return blk, i
}

// term resolves a spilled term id.
func (a *termArena) term(id TermID) Term {
	si, b, i := a.where(id)
	a.mu.Lock()
	blk, ok := a.cache.get(frameKey(si, b))
	if !ok {
		a.mu.Unlock()
		blk = a.load(si, b)
		a.mu.Lock()
	}
	if blk.terms == nil {
		if !blk.again { // a block read for a single term is not worth the table
			blk.again = true
			a.mu.Unlock()
			return blk.term(i)
		}
		blk.terms = make([]Term, len(blk.off)-1)
	}
	t := blk.terms[i]
	if t.Kind == 0 {
		t = blk.term(i)
		blk.terms[i] = t
	}
	a.mu.Unlock()
	return t
}

// record returns the serialized form of a spilled term (appendTermRecord's
// bytes), which a fold copies without decoding.
func (a *termArena) record(id TermID) []byte {
	blk, i := a.locate(id)
	return blk.buf[blk.off[i]:blk.off[i+1]]
}

// arenaHas reports whether spilled term id is k, compared in its block.
func arenaHas[S string | []byte](a *termArena, id TermID, k *termKey[S]) bool {
	blk, i := a.locate(id)
	rec := blk.key(i)
	return k.matches(&rec)
}
