package rdf

import "fmt"

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
// restoring the exact pre-Remove admission order. idx is a slot as IndexOf
// and NumSlots count them, spilled or not. It reports whether the slot was
// restored; it refuses (returning false) when the slot is not a tombstone or
// when the triple was re-added elsewhere in the meantime — callers rolling
// back a batch must truncate the batch's Adds first.
func (g *Graph) Unremove(idx int32, t Triple) bool {
	i := int(idx)
	if i < 0 || i >= g.numSlots() || !g.slotDead(i) {
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
	if g.encAt(i) != e {
		return false
	}
	g.ownPresent()
	h := e.hash()
	slot, _, live := findTriple(g.present, h, e, g.triples)
	if live {
		return false
	}
	if g.spill != nil {
		if _, live := g.spilledSlotOf(e); live {
			return false
		}
	}
	if base := g.spillBase(); i >= base {
		g.present.insert(slot, h, i-base)
	}
	g.setDead(i, false)
	return true
}

// TruncateFrom removes every admission slot >= n, live or tombstoned,
// un-admitting the most recent Adds. n counts slots as NumSlots does; the
// spilled prefix is on disk and cannot be un-admitted, so an n below it is a
// caller bug and panics. Posting lists are append-ordered, so the entries the
// index holds for the truncated slots are exactly their tails. Dictionary
// entries interned by the truncated Adds are retained (ids are internal and
// never affect admission order). The vacated slots may still be visible to a
// clone, so the graph gives up its spare capacity: the next Add reallocates
// instead of writing over them.
func (g *Graph) TruncateFrom(n int) {
	n = max(n, 0)
	base := g.spillBase()
	if n < base {
		panic(fmt.Sprintf("rdf: TruncateFrom(%d) below the %d spilled slots", n, base))
	}
	if n >= g.numSlots() {
		return
	}
	g.ownPresent()
	tail := n - base
	if indexed := g.indexed.Load(); indexed > tail {
		for i := indexed - 1; i >= tail; i-- {
			e, idx := g.triples[i], int32(base+i)
			g.popIndex(0, e.s, idx)
			g.popIndex(1, e.p, idx)
			g.popIndex(2, e.o, idx)
		}
		g.indexed.Reset(tail)
	}
	for i := len(g.triples) - 1; i >= tail; i-- {
		if g.slotDead(base + i) {
			g.setDead(base+i, false)
		} else if slot, _, ok := findTriple(g.present, g.triples[i].hash(), g.triples[i], g.triples); ok {
			g.present.remove(slot)
		}
	}
	g.triples = g.triples[:tail:tail]
	words := (n + 63) / 64
	g.dead = g.dead[:words:words]
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
