package pg

// Clone returns a logical copy of the store: mutating the clone (or the
// original) never affects the other, which is what lets the serving layer
// freeze a consistent snapshot of a live graph while delta application
// continues on the original. Nothing is copied per node or per edge: the
// node, edge and adjacency tables and the IRI index are shared copy-on-write
// (package cow), the per-label id lists are shared with the clone's capacity
// clipped (only s appends to them in place), and every existing record
// becomes shared — both sides take a fresh stamp, so the first write to a
// node or edge on either side copies that one record (mutNode, mutEdge).
// Only the label maps are copied, one slice header per label. Clone writes
// to s's sharing state, so like any mutation it must not run concurrently
// with another method of s.
func (s *Store) Clone() *Store {
	s.own = new(stamp)
	c := &Store{
		nodes:       s.nodes.Clone(),
		edges:       s.edges.Clone(),
		byLabel:     make(map[string][]NodeID, len(s.byLabel)),
		byEdgeLabel: make(map[string][]EdgeID, len(s.byEdgeLabel)),
		out:         s.out.Clone(),
		in:          s.in.Clone(),
		byIRI:       s.byIRI.Clone(),
		iriShared:   s.iriShared,
		own:         new(stamp),
	}
	for l, ids := range s.byLabel {
		c.byLabel[l] = ids[:len(ids):len(ids)]
	}
	for l, ids := range s.byEdgeLabel {
		c.byEdgeLabel[l] = ids[:len(ids):len(ids)]
	}
	return c
}
