package rdf

// This file exposes the graph's admission order — the slot index assigned to
// each triple by the Add call that created it — plus the exact-rollback
// primitives the incremental transformation needs. Admission order is the
// contract the S3PG data transformation is deterministic over (see ForEach),
// so core.ApplyDelta keys its incremental state by these indexes, and a
// rejected batch must be rolled back without perturbing the order the
// surviving triples were admitted in.

// IndexOf returns the admission index of a live triple. The index is stable
// for the triple's lifetime: Remove tombstones the slot, and re-adding the
// same triple assigns a fresh, larger index.
func (g *Graph) IndexOf(t Triple) (int32, bool) {
	s, ok := g.dict.Lookup(t.S)
	if !ok {
		return 0, false
	}
	p, ok := g.dict.Lookup(t.P)
	if !ok {
		return 0, false
	}
	o, ok := g.dict.Lookup(t.O)
	if !ok {
		return 0, false
	}
	return g.slotOf(encTriple{s, p, o})
}

// Unremove resurrects a triple tombstoned by Remove at its original slot,
// restoring the exact pre-Remove admission order. It reports whether the
// slot was restored; it refuses (returning false) when the slot is not a
// tombstone or when the triple was re-added elsewhere in the meantime —
// callers rolling back a batch must truncate the batch's Adds first.
func (g *Graph) Unremove(idx int32, t Triple) bool {
	if int(idx) >= len(g.triples) || !g.dead[idx] {
		return false
	}
	s, ok := g.dict.Lookup(t.S)
	if !ok {
		return false
	}
	p, ok := g.dict.Lookup(t.P)
	if !ok {
		return false
	}
	o, ok := g.dict.Lookup(t.O)
	if !ok {
		return false
	}
	e := encTriple{s, p, o}
	if g.triples[idx] != e {
		return false
	}
	g.ownPresent()
	if _, present := g.present[e]; present {
		return false
	}
	g.present[e] = idx
	g.ownDead()
	g.dead[idx] = false
	g.nDead--
	return true
}

// TruncateFrom removes every admission slot >= n, live or tombstoned,
// un-admitting the most recent Adds. Posting lists are append-ordered, so
// the truncated entries are exactly their tails. Dictionary entries interned
// by the truncated Adds are retained (ids are internal and never affect
// admission order). The vacated slots may still be visible to a clone, so
// the graph gives up its spare capacity: the next Add reallocates instead of
// writing over them.
func (g *Graph) TruncateFrom(n int) {
	if n < 0 {
		n = 0
	}
	if n >= len(g.triples) {
		return
	}
	g.ownPresent()
	for i := len(g.triples) - 1; i >= n; i-- {
		e := g.triples[i]
		g.popIndex(0, e.s, int32(i))
		g.popIndex(1, e.p, int32(i))
		g.popIndex(2, e.o, int32(i))
		if g.dead[i] {
			g.nDead--
		} else {
			delete(g.present, e)
		}
	}
	g.triples = g.triples[:n:n]
	g.dead = g.dead[:n:n]
}

// popIndex removes the tail entry of a posting list, asserting it is the
// expected index (a mismatch means the list lost its append order — a bug).
func (g *Graph) popIndex(k int, id TermID, want int32) {
	list := g.post[k].At(int(id))
	if len(list) == 0 || list[len(list)-1] != want {
		panic("rdf: posting list out of admission order during truncate")
	}
	g.post[k].Pop(int(id))
}
