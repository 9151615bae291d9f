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

// indexEdges brings the adjacency tables up to date before a read of them:
// from empty by one counting sort (sortAdjacency), otherwise by appending the
// edges added since the last read. Readers of a store nobody mutates may call
// it concurrently — the first one builds under indexMu, the others find the
// watermark current and take no lock — so a freshly loaded store can be
// shared before anything has read it.
func (s *Store) indexEdges() {
	n := int64(s.edges.Len())
	if s.edgesIndexed.Load() == n {
		return
	}
	s.indexMu.Lock()
	defer s.indexMu.Unlock()
	from := s.edgesIndexed.Load()
	if from == n {
		return
	}
	if from == 0 {
		s.out, s.in = sortAdjacency(&s.edges, s.nodes.Len())
	} else {
		for i := int(from); i < int(n); i++ {
			e := s.edges.At(i)
			s.out.Append(int(e.from), EdgeID(i))
			s.in.Append(int(e.to), EdgeID(i))
		}
	}
	cIndexEntries.Add(2 * (n - from))
	s.edgesIndexed.Store(n)
}

// sortAdjacency builds the out and in lists of an edge table whose endpoints
// are below nodes, by counting sort: per direction one array holding every
// edge grouped by node, each node's list a window of it with its capacity
// clipped, so an append to one list never writes into the next. Edges ascend
// within a list, the order appending them one by one gives.
func sortAdjacency(edges *cow.Table[edgeRec], nodes int) (out, in cow.Lists[EdgeID]) {
	n := edges.Len()
	var next [2][]uint32 // next[k][id]: where id's next edge goes in slab[k]
	var slab [2][]EdgeID
	for k := range next {
		next[k] = make([]uint32, nodes+1)
		slab[k] = make([]EdgeID, n)
	}
	for i := range n {
		e := edges.At(i)
		next[0][e.from+1]++
		next[1][e.to+1]++
	}
	for k := range next {
		for id := 1; id <= nodes; id++ {
			next[k][id] += next[k][id-1]
		}
	}
	for i := range n {
		e := edges.At(i)
		slab[0][next[0][e.from]] = EdgeID(i)
		next[0][e.from]++
		slab[1][next[1][e.to]] = EdgeID(i)
		next[1][e.to]++
	}
	// next[k][id] is now where id's list ends and id+1's begins.
	for k, lists := range [2]*cow.Lists[EdgeID]{&out, &in} {
		lo := uint32(0)
		for id, hi := range next[k][:nodes] {
			if hi > lo {
				lists.Set(id, slab[k][lo:hi:hi])
			}
			lo = hi
		}
	}
	return out, in
}

// indexIRIs brings the iri index up to date before a read of it, registering
// the nodes added since the last read in id order — the order they were
// added in, so the first node added under an iri holds it. A write of a
// node's iri catches the index up first (mutNode), so it only ever registers
// the iri a node was added with. Concurrent first readers are serialized as
// in indexEdges.
func (s *Store) indexIRIs() {
	n := int64(s.nodes.Len())
	if s.nodesIndexed.Load() == n {
		return
	}
	s.indexMu.Lock()
	defer s.indexMu.Unlock()
	from := s.nodesIndexed.Load()
	if from == n {
		return
	}
	entries := int64(0)
	for i := from; i < n; i++ {
		if iri, ok := s.Node(NodeID(i)).PropSym(iriKey).(string); ok {
			s.indexIRI(iri, NodeID(i))
			entries++
		}
	}
	cIndexEntries.Add(entries)
	s.nodesIndexed.Store(n)
}

// indexIRI registers the node under its iri unless the slot is taken; a
// slot taken by another node is remembered, because from then on the index
// no longer finds every node of an iri.
func (s *Store) indexIRI(iri string, id NodeID) {
	if first, _ := s.byIRI.GetOrPut(iri, id); first != id {
		s.iriShared = true
	}
}
