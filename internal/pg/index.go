package pg

import (
	"github.com/s3pg/s3pg/internal/cow"
	"github.com/s3pg/s3pg/internal/obs"
)

// cIndexEntries counts what the derived indexes took in when a read brought
// them up to date: two adjacency entries per edge, one iri entry per node
// with a string iri. Each element is indexed once per store, however many
// readers race to the first read (the twin of rdf.graph.index_entries).
var cIndexEntries = obs.Default.Counter("pg.store.index_entries")

// indexEdges brings the adjacency tables up to date before a read of them,
// and indexIRIs the iri index (cow.Watermark, DESIGN.md §9). Out, In and
// NodeByIRI call CatchUp themselves: these wrappers cost too much to inline.
func (s *Store) indexEdges() { s.edgesIndexed.CatchUp(s.edges.Len(), s.addEdges) }
func (s *Store) indexIRIs()  { s.nodesIndexed.CatchUp(s.nodes.Len(), s.addIRIs) }

// addEdges indexes edges [from, to): from empty by counting sort, otherwise
// by appending them. Edges ascend within a list.
func (s *Store) addEdges(from, to int) {
	if from == 0 {
		out, in := cow.NewGrouper[EdgeID](s.nodes.Len()), cow.NewGrouper[EdgeID](s.nodes.Len())
		for i := range to {
			e := s.edges.At(i)
			out.Count(int(e.from))
			in.Count(int(e.to))
		}
		out.Sum()
		in.Sum()
		for i := range to {
			e := s.edges.At(i)
			out.Place(int(e.from), EdgeID(i))
			in.Place(int(e.to), EdgeID(i))
		}
		s.out, s.in = out.Lists(), in.Lists()
	} else {
		for i := from; i < to; i++ {
			e := s.edges.At(i)
			s.out.Append(int(e.from), EdgeID(i))
			s.in.Append(int(e.to), EdgeID(i))
		}
	}
	cIndexEntries.Add(2 * int64(to-from))
}

// addIRIs registers nodes [from, to) in id order — the order they were added
// in, so the first node added under an iri holds it. A write of a node's iri
// catches the index up first (mutNode), so it only ever registers the iri a
// node was added with.
func (s *Store) addIRIs(from, to int) {
	entries := int64(0)
	for i := from; i < to; i++ {
		if iri, ok := s.Node(NodeID(i)).PropSym(iriKey).(string); ok {
			s.indexIRI(iri, NodeID(i))
			entries++
		}
	}
	cIndexEntries.Add(entries)
}

// indexIRI registers the node under its iri unless the slot is taken; a
// slot taken by another node is remembered, because from then on the index
// no longer finds every node of an iri.
func (s *Store) indexIRI(iri string, id NodeID) {
	if first, _ := s.byIRI.GetOrPut(iri, id); first != id {
		s.iriShared = true
	}
}
