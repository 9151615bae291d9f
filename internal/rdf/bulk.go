package rdf

// NumSlots returns the number of triple slots, live and tombstoned. Slot
// indexes are stable for the life of the graph, as ForEachEncoded hands
// them out; spilling does not renumber them.
func (g *Graph) NumSlots() int { return g.numSlots() }

// ForEachEncoded calls fn for every live triple slot in admission order (the
// same order ForEach observes) until fn returns false, passing the slot
// index and the encoded components.
func (g *Graph) ForEachEncoded(fn func(slot int, s, p, o TermID) bool) { g.ForEachEncodedFrom(0, fn) }

// ForEachEncodedFrom is ForEachEncoded over the slots from slot from on: the
// triples admitted since the graph had from slots.
func (g *Graph) ForEachEncodedFrom(from int, fn func(slot int, s, p, o TermID) bool) {
	g.forEachSlot(from, func(slot int, e encTriple) bool {
		return fn(slot, e.s, e.p, e.o)
	})
}
