package pg

import (
	"fmt"
	"sort"

	"github.com/s3pg/s3pg/internal/cow"
)

// NoNode is the id Resequence's result holds for a dropped node.
const NoNode = ^NodeID(0)

const noEdge = ^EdgeID(0)

// NodeMove takes node ID out of the sequence and puts it back immediately
// before the node that holds id Before when Resequence is called
// (Before = NumNodes() is the end). Before names a position, not a node: it
// stays meaningful when that node is itself dropped or moved. Moves to the
// same position land in script order.
//
// A per-label list is in labelling order. Relist says the node was labelled
// when it was created, so its place in its lists moves with it: it is taken
// out of each and put back in id order. Without Relist the node keeps its
// place in its lists.
type NodeMove struct {
	ID, Before NodeID
	Relist     bool
}

// Resequence applies an order-preserving edit script: the dropped nodes and
// edges disappear, the moved nodes take their new positions, every other
// element keeps its place relative to the others, and ids are made dense
// again (ids are positions: the CSV export and every index address elements
// by them). It returns the old → new node id map, NoNode for dropped nodes.
//
// It is one pass of integer work over the store: every kept record is
// written to its new slot in fresh pages (a record is a few words; nothing is
// allocated per record), the edges' endpoints, the node label lists and the
// iri index are rewritten through the map, the dropped edges leave the
// per-label edge counts; label sets, property slices and values are not
// touched and stay shared with any clone, so the records come out disowned.
// The adjacency tables are dropped: edges keep their order, so the next read
// sorts the new edge table into the lists remapping them would give.
//
// Every edge of a dropped node must be dropped with it; Resequence panics on
// a script that is not one (a caller bug, like an AddEdge out of range).
func (s *Store) Resequence(dropNodes []NodeID, moves []NodeMove, dropEdges []EdgeID) []NodeID {
	s.indexIRIs()
	nodeMap := s.newNodeIDs(dropNodes, moves)
	edgeMap := make([]EdgeID, s.edges.Len())
	for _, id := range dropEdges {
		edgeMap[id] = noEdge
	}
	kept := EdgeID(0)
	for i, v := range edgeMap {
		if v != noEdge {
			edgeMap[i] = kept
			kept++
		}
	}

	var nodes cow.Table[nodeRec]
	for i, id := range nodeMap {
		if id != NoNode {
			r := s.nodes.At(i)
			r.own = false
			*nodes.Edit(int(id), nil) = r
		}
	}
	var edges cow.Table[edgeRec]
	for i, id := range edgeMap {
		e := s.edges.At(i)
		if id == noEdge {
			s.edgeCount[e.label]--
			continue
		}
		from, to := nodeMap[e.from], nodeMap[e.to]
		if from == NoNode || to == NoNode {
			panic(fmt.Sprintf("pg: Resequence keeps edge %d of a dropped node (%d -> %d)", i, e.from, e.to))
		}
		e.from, e.to, e.own = from, to, false
		*edges.Edit(int(id), nil) = e
	}

	s.nodes, s.edges = nodes, edges
	s.out, s.in = cow.Lists[EdgeID]{}, cow.Lists[EdgeID]{}
	s.edgesIndexed.Reset(0)

	relist := make(map[Sym][]NodeID)
	for _, mv := range moves {
		if mv.Relist {
			id := nodeMap[mv.ID]
			for _, l := range s.names.sets[nodes.At(int(id)).set].syms {
				relist[l] = append(relist[l], id)
			}
		}
	}
	for l, ids := range s.byLabel {
		ids = remapIDs(ids, nodeMap)
		if moved := relist[Sym(l)]; len(moved) > 0 {
			ids = placeByID(ids, moved)
		}
		s.byLabel[l] = ids
	}
	s.remapIRIs(nodeMap)
	return nodeMap
}

// remapIRIs takes the iri index, which Resequence brought up to date first,
// through the node id map: it keeps its registration order, which a rebuild
// in the new id order would not when a node moved. The index cannot forget a
// key, so when a node it holds was dropped it is built again, first node in
// id order first.
func (s *Store) remapIRIs(nodeMap []NodeID) {
	defer s.nodesIndexed.Reset(s.nodes.Len())
	type entry struct {
		iri string
		id  NodeID
	}
	var changed []entry
	rebuild := false
	s.byIRI.Range(func(iri string, id NodeID) bool {
		if to := nodeMap[id]; to == NoNode {
			rebuild = true
		} else if to != id {
			changed = append(changed, entry{iri, to})
		}
		return !rebuild
	})
	if !rebuild {
		for _, e := range changed {
			s.byIRI.Put(e.iri, e.id)
		}
		return
	}
	s.byIRI, s.iriShared = cow.Map[string, NodeID]{}, false
	for i := 0; i < s.nodes.Len(); i++ {
		if iri, ok := s.Node(NodeID(i)).PropSym(iriKey).(string); ok {
			s.indexIRI(iri, NodeID(i))
		}
	}
}

// newNodeIDs lays the node part of the script out as the old → new id map.
func (s *Store) newNodeIDs(dropNodes []NodeID, moves []NodeMove) []NodeID {
	n := s.nodes.Len()
	nodeMap := make([]NodeID, n)
	lifted := make([]bool, n) // dropped, or moved and placed by its move
	for _, id := range dropNodes {
		nodeMap[id], lifted[id] = NoNode, true
	}
	for _, mv := range moves {
		if lifted[mv.ID] {
			panic(fmt.Sprintf("pg: Resequence moves node %d twice, or drops it too", mv.ID))
		}
		lifted[mv.ID] = true
	}
	byPos := func(i, j int) bool { return moves[i].Before < moves[j].Before }
	if !sort.SliceIsSorted(moves, byPos) {
		moves = append([]NodeMove(nil), moves...)
		sort.SliceStable(moves, byPos)
	}
	next, mi := NodeID(0), 0
	for i := 0; i <= n; i++ {
		for ; mi < len(moves) && (int(moves[mi].Before) == i || i == n); mi++ {
			nodeMap[moves[mi].ID] = next
			next++
		}
		if i < n && !lifted[i] {
			nodeMap[i] = next
			next++
		}
	}
	return nodeMap
}

// remapIDs rewrites an id list through idMap, leaving out the ids mapped to
// NoNode. A list nothing changes in is returned as it is; any other is built
// anew, because a clone may be reading the old array.
func remapIDs(ids, idMap []NodeID) []NodeID {
	i := 0
	for i < len(ids) && idMap[ids[i]] == ids[i] {
		i++
	}
	if i == len(ids) {
		return ids
	}
	out := make([]NodeID, i, len(ids))
	copy(out, ids)
	for _, id := range ids[i:] {
		if id = idMap[id]; id != NoNode {
			out = append(out, id)
		}
	}
	return out
}

// placeByID takes the moved ids out of the list and merges them back in id
// order.
func placeByID(ids, moved []NodeID) []NodeID {
	sort.Slice(moved, func(i, j int) bool { return moved[i] < moved[j] })
	isMoved := make(map[NodeID]bool, len(moved))
	for _, id := range moved {
		isMoved[id] = true
	}
	out := make([]NodeID, 0, len(ids))
	for _, id := range ids {
		if isMoved[id] {
			continue
		}
		for len(moved) > 0 && moved[0] < id {
			out, moved = append(out, moved[0]), moved[1:]
		}
		out = append(out, id)
	}
	return append(out, moved...)
}
