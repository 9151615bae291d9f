package pg

import "slices"

// Clone returns a logical copy of the store: mutating the clone (or the
// original) never affects the other, which is what lets the serving layer
// freeze a consistent snapshot of a live graph while delta application
// continues on the original. Nothing is copied per node or per edge: the
// node, edge and adjacency tables, the IRI index and the name tables are
// shared copy-on-write (package cow), the per-label node lists are shared
// with the clone's capacity clipped (only s appends to them in place), and
// every existing record becomes shared — the first write to a node or edge on
// either side copies its page, and then that one record's properties
// (mutNode, mutEdge). Only the label lists' headers and the per-label edge
// counts are copied, one per label.
//
// Clone first brings s's adjacency and iri indexes up to date and starts the
// clone at s's watermarks (DESIGN.md §9), so a snapshot that is only read
// never builds an index and a live store pays at each publish for the edges
// and nodes added since the last one. Clone writes to s's sharing state, so
// like any mutation it must not run concurrently with another method of s.
func (s *Store) Clone() *Store {
	s.indexEdges()
	s.indexIRIs()
	c := &Store{
		nodes:     s.nodes.Clone(),
		edges:     s.edges.Clone(),
		names:     s.names.clone(),
		byLabel:   make([][]NodeID, len(s.byLabel)),
		edgeCount: slices.Clone(s.edgeCount),
		out:       s.out.Clone(),
		in:        s.in.Clone(),
		byIRI:     s.byIRI.Clone(),
		iriShared: s.iriShared,
	}
	c.edgesIndexed.Reset(s.edgesIndexed.Load())
	c.nodesIndexed.Reset(s.nodesIndexed.Load())
	for l, ids := range s.byLabel {
		c.byLabel[l] = ids[:len(ids):len(ids)]
	}
	return c
}
