package rdf

import "sync"

// EncodedTriple is a dictionary-encoded triple for bulk graph construction.
// Components must be ids of the dictionary the graph is built over; the bulk
// constructor trusts them (ids are only produced by Intern).
type EncodedTriple struct {
	S, P, O TermID
}

// minParallelIndex is the triple count below which parallel index
// construction cannot pay for its goroutines.
const minParallelIndex = 1 << 14

// NewGraphFromEncoded bulk-builds a graph over d from encoded triples,
// preserving stream order: duplicate admission, slot assignment, and every
// iteration order are identical to NewGraphWithDict(d) followed by Add of
// the decoded triples in the same order. Posting-list construction fans out
// across workers (admission itself is order-defining and stays sequential);
// workers <= 1, or inputs too small to amortize goroutines, build everything
// on the calling goroutine.
func NewGraphFromEncoded(d *Dict, enc []EncodedTriple, workers int) *Graph {
	g := &Graph{dict: d, present: make(map[encTriple]int32, len(enc))}
	g.triples = make([]encTriple, 0, len(enc))
	for _, e := range enc {
		et := encTriple{e.S, e.P, e.O}
		if _, ok := g.present[et]; ok {
			continue
		}
		g.present[et] = int32(len(g.triples))
		g.triples = append(g.triples, et)
	}
	g.dead = make([]bool, len(g.triples))
	cGraphTriples.Add(int64(len(g.triples)))
	cIndexEntries.Add(3 * int64(len(g.triples)))
	if workers <= 1 || len(g.triples) < minParallelIndex {
		for i, e := range g.triples {
			idx := int32(i)
			g.post[0].Append(int(e.s), idx)
			g.post[1].Append(int(e.p), idx)
			g.post[2].Append(int(e.o), idx)
		}
		return g
	}
	g.buildIndexesParallel(workers)
	return g
}

// buildIndexesParallel builds the three posting-list indexes over contiguous
// slot ranges, one range per worker, then merges per-range lists by
// concatenating them in range order. Each range's lists are ascending and the
// ranges are contiguous and disjoint, so in-order concatenation is a k-way
// sorted merge whose runs never interleave — the result is exactly the
// insertion-order lists sequential Add produces.
func (g *Graph) buildIndexesParallel(workers int) {
	n := len(g.triples)
	if workers > n {
		workers = n
	}
	type partial [3]map[TermID][]int32
	parts := make([]partial, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			p := partial{make(map[TermID][]int32), make(map[TermID][]int32), make(map[TermID][]int32)}
			for i := lo; i < hi; i++ {
				e := g.triples[i]
				idx := int32(i)
				p[0][e.s] = append(p[0][e.s], idx)
				p[1][e.p] = append(p[1][e.p], idx)
				p[2][e.o] = append(p[2][e.o], idx)
			}
			parts[w] = p
		}(w, lo, hi)
	}
	wg.Wait()
	var mg sync.WaitGroup
	for k := range g.post {
		mg.Add(1)
		go func(k int) {
			defer mg.Done()
			for i := range parts {
				for id, l := range parts[i][k] {
					g.post[k].Extend(int(id), l)
				}
			}
		}(k)
	}
	mg.Wait()
}

// NumSlots returns the number of triple slots, live and tombstoned. Slot
// indexes are stable for the life of the graph and usable with EncodedAt;
// spilling does not renumber them.
func (g *Graph) NumSlots() int { return g.numSlots() }

// EncodedAt returns the encoded triple in slot i and whether it is live.
func (g *Graph) EncodedAt(i int) (s, p, o TermID, live bool) {
	e := g.encAt(i)
	return e.s, e.p, e.o, !g.slotDead(i)
}

// ForEachEncoded calls fn for every live triple slot in admission order (the
// same order ForEach observes) until fn returns false, passing the slot
// index and the encoded components.
func (g *Graph) ForEachEncoded(fn func(slot int, s, p, o TermID) bool) {
	g.forEachSlot(func(slot int, e encTriple) bool {
		return fn(slot, e.s, e.p, e.o)
	})
}
