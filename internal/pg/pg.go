// Package pg implements the property graph data model of Definition 2.4:
// a node- and edge-labelled directed attributed multigraph whose nodes and
// edges carry records (key → value maps). The in-memory Store indexes nodes
// by label and by the unique "iri" property, and edges by label, which is
// what the Cypher engine and the transformation algorithms traverse.
package pg

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/s3pg/s3pg/internal/cow"
)

// Value is a property value: string, int64, float64, bool, or []Value for
// (homogeneous) arrays. The zero interface is "no value".
type Value any

// ValueEqual compares two property values, descending into arrays.
func ValueEqual(a, b Value) bool {
	la, aok := a.([]Value)
	lb, bok := b.([]Value)
	if aok != bok {
		return false
	}
	if aok {
		if len(la) != len(lb) {
			return false
		}
		for i := range la {
			if !ValueEqual(la[i], lb[i]) {
				return false
			}
		}
		return true
	}
	// Numeric cross-type equality (int64 vs float64).
	if fa, fb, ok := numericPair(a, b); ok {
		return fa == fb
	}
	return a == b
}

func numericPair(a, b Value) (float64, float64, bool) {
	fa, aok := toFloat(a)
	fb, bok := toFloat(b)
	return fa, fb, aok && bok
}

func toFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}

// FormatValue renders a value for display and CSV export.
func FormatValue(v Value) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	case []Value:
		parts := make([]string, len(x))
		for i, e := range x {
			parts[i] = FormatValue(e)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	default:
		return fmt.Sprint(x)
	}
}

// NodeID identifies a node within a Store.
type NodeID uint32

// EdgeID identifies an edge within a Store.
type EdgeID uint32

// stamp is the identity of a store between two Clones: a node or edge
// record carrying the store's current stamp is private to it and may be
// written in place; any other record is shared with a clone and is copied
// first (see Store.mutNode).
type stamp struct{ _ byte }

// Node is a property graph node: a set of labels and a record. Nodes are
// read through the exported fields and written only through the Store's
// mutators — a *Node taken from a store stays a consistent view of the node
// as of the store's last Clone, not of later writes.
type Node struct {
	ID     NodeID
	Labels []string // sorted, duplicate-free
	Props  map[string]Value

	own *stamp
}

// HasLabel reports whether the node carries the label.
func (n *Node) HasLabel(l string) bool {
	for _, x := range n.Labels {
		if x == l {
			return true
		}
	}
	return false
}

// Edge is a directed property graph edge with a single label and a record.
// Like nodes, edges are written only through the Store.
type Edge struct {
	ID    EdgeID
	From  NodeID
	To    NodeID
	Label string
	Props map[string]Value

	own *stamp
}

// Store is an in-memory property graph. It is not safe for concurrent
// mutation (Clone counts as mutation); concurrent readers are safe once
// loading completes.
type Store struct {
	nodes cow.Table[*Node]
	edges cow.Table[*Edge]

	byLabel     map[string][]NodeID // per-label lists are append-only
	byEdgeLabel map[string][]EdgeID
	out         cow.Lists[EdgeID]
	in          cow.Lists[EdgeID]
	byIRI       cow.Map[string, NodeID] // first node registered under each "iri" property
	iriShared   bool                    // some iri was registered by a second node

	own *stamp // records stamped with it are private to this store
}

// NewStore returns an empty property graph.
func NewStore() *Store {
	return &Store{
		byLabel:     make(map[string][]NodeID),
		byEdgeLabel: make(map[string][]EdgeID),
	}
}

// NumNodes returns the node count.
func (s *Store) NumNodes() int { return s.nodes.Len() }

// NumEdges returns the edge count.
func (s *Store) NumEdges() int { return s.edges.Len() }

// RelTypes returns the number of distinct edge labels.
func (s *Store) RelTypes() int { return len(s.byEdgeLabel) }

// AddNode creates a node with the given labels and properties and returns it.
// Labels are deduplicated and sorted; the props map is owned by the store
// afterwards. If props contains a string "iri" property it is registered in
// the unique IRI index (first writer wins).
func (s *Store) AddNode(labels []string, props map[string]Value) *Node {
	set := make(map[string]bool, len(labels))
	clean := make([]string, 0, len(labels))
	for _, l := range labels {
		if l != "" && !set[l] {
			set[l] = true
			clean = append(clean, l)
		}
	}
	sort.Strings(clean)
	if props == nil {
		props = make(map[string]Value)
	}
	n := &Node{ID: NodeID(s.nodes.Len()), Labels: clean, Props: props, own: s.own}
	s.nodes.Set(int(n.ID), n)
	for _, l := range clean {
		s.byLabel[l] = append(s.byLabel[l], n.ID)
	}
	if iri, ok := props["iri"].(string); ok {
		s.indexIRI(iri, n.ID)
	}
	return n
}

// indexIRI registers the node under its iri unless the slot is taken; a
// slot taken by another node is remembered, because from then on the index
// no longer finds every node of an iri.
func (s *Store) indexIRI(iri string, id NodeID) {
	if first, _ := s.byIRI.GetOrPut(iri, id); first != id {
		s.iriShared = true
	}
}

// AddEdge creates a directed labelled edge. It panics if an endpoint id is
// out of range, which always indicates a caller bug.
func (s *Store) AddEdge(from, to NodeID, label string, props map[string]Value) *Edge {
	if int(from) >= s.nodes.Len() || int(to) >= s.nodes.Len() {
		panic(fmt.Sprintf("pg: edge endpoint out of range: %d -> %d (have %d nodes)", from, to, s.nodes.Len()))
	}
	if props == nil {
		props = make(map[string]Value)
	}
	e := &Edge{ID: EdgeID(s.edges.Len()), From: from, To: to, Label: label, Props: props, own: s.own}
	s.edges.Set(int(e.ID), e)
	s.byEdgeLabel[label] = append(s.byEdgeLabel[label], e.ID)
	s.out.Append(int(from), e.ID)
	s.in.Append(int(to), e.ID)
	return e
}

// Node returns the node by id, or nil when out of range.
func (s *Store) Node(id NodeID) *Node { return s.nodes.At(int(id)) }

// Edge returns the edge by id, or nil when out of range.
func (s *Store) Edge(id EdgeID) *Edge { return s.edges.At(int(id)) }

// NodesByLabel returns the ids of nodes carrying the label.
func (s *Store) NodesByLabel(label string) []NodeID { return s.byLabel[label] }

// EdgesByLabel returns the ids of edges carrying the label.
func (s *Store) EdgesByLabel(label string) []EdgeID { return s.byEdgeLabel[label] }

// Out returns the outgoing edge ids of the node.
func (s *Store) Out(id NodeID) []EdgeID { return s.out.At(int(id)) }

// In returns the incoming edge ids of the node.
func (s *Store) In(id NodeID) []EdgeID { return s.in.At(int(id)) }

// IRIUnique reports whether NodeByIRI can stand in for a scan: no iri was
// ever registered by two nodes, so a node whose "iri" property is a given
// string is the one the index holds. S3PG stores keep it true (one node per
// resource); the Store itself does not enforce it.
func (s *Store) IRIUnique() bool { return !s.iriShared }

// NodeByIRI returns the first node registered under iri — the node whose
// "iri" property equals it, unless the property was rewritten since — or nil.
func (s *Store) NodeByIRI(iri string) *Node {
	id, ok := s.byIRI.Get(iri)
	if !ok {
		return nil
	}
	return s.nodes.At(int(id))
}

// mutNode returns node id for writing. This and mutEdge are the only places
// a record of an existing element is written, so they are where copy-on-write
// is enforced: a record shared with a clone is replaced by a private copy
// (label slice and array values clipped, so appends reallocate) first.
func (s *Store) mutNode(id NodeID) *Node {
	n := s.nodes.At(int(id))
	if n.own != s.own {
		n = &Node{ID: n.ID, Labels: n.Labels[:len(n.Labels):len(n.Labels)], Props: cloneProps(n.Props), own: s.own}
		s.nodes.Set(int(id), n)
	}
	return n
}

func (s *Store) mutEdge(id EdgeID) *Edge {
	e := s.edges.At(int(id))
	if e.own != s.own {
		c := *e
		c.Props, c.own = cloneProps(e.Props), s.own
		e = &c
		s.edges.Set(int(id), e)
	}
	return e
}

// cloneProps copies a property map for a private record. Array values keep
// their elements but lose their spare capacity: appendProp extends them with
// append, which must not write into an array a clone still reads.
func cloneProps(props map[string]Value) map[string]Value {
	c := make(map[string]Value, len(props))
	for k, v := range props {
		if list, ok := v.([]Value); ok {
			v = list[:len(list):len(list)]
		}
		c[k] = v
	}
	return c
}

// AddLabel adds a label to an existing node, keeping indexes consistent.
func (s *Store) AddLabel(id NodeID, label string) {
	if label == "" || s.nodes.At(int(id)).HasLabel(label) {
		return
	}
	n := s.mutNode(id)
	n.Labels = append(n.Labels, label)
	sort.Strings(n.Labels)
	s.byLabel[label] = append(s.byLabel[label], id)
}

// SetProp sets a property on a node. Setting "iri" registers the node in the
// IRI index when the slot is free.
func (s *Store) SetProp(id NodeID, key string, v Value) {
	s.mutNode(id).Props[key] = v
	if key == "iri" {
		if iri, ok := v.(string); ok {
			s.indexIRI(iri, id)
		}
	}
}

// AppendProp appends a value to a node property, promoting a scalar to an
// array. It is the primitive used for multi-valued key/value properties.
func (s *Store) AppendProp(id NodeID, key string, v Value) {
	appendProp(s.mutNode(id).Props, key, v)
}

// AppendEdgeProp is AppendProp for an edge record (RDF-star annotations).
func (s *Store) AppendEdgeProp(id EdgeID, key string, v Value) {
	appendProp(s.mutEdge(id).Props, key, v)
}

// HasPropValue reports whether a node property is v or an array holding v.
func (s *Store) HasPropValue(id NodeID, key string, v Value) bool {
	arr, at := propValues(s.nodes.At(int(id)).Props, key, v)
	return at < len(arr)
}

// RemovePropValue undoes one AppendProp: it takes the first occurrence of v
// out of a node property, an array left with one value becomes that scalar
// again, and a property left with none is deleted. It reports whether v was
// there.
func (s *Store) RemovePropValue(id NodeID, key string, v Value) bool {
	arr, at := propValues(s.nodes.At(int(id)).Props, key, v)
	if at == len(arr) {
		return false
	}
	props := s.mutNode(id).Props
	switch len(arr) {
	case 1:
		delete(props, key)
	case 2:
		props[key] = arr[1-at]
	default:
		// A new array: a clone may be reading the old one.
		rest := make([]Value, 0, len(arr)-1)
		props[key] = append(append(rest, arr[:at]...), arr[at+1:]...)
	}
	return true
}

// propValues returns the values of a property as a list and the index of the
// first that is v (the list's length when none is).
func propValues(props map[string]Value, key string, v Value) (arr []Value, at int) {
	cur, ok := props[key]
	if !ok {
		return nil, 0
	}
	if arr, ok = cur.([]Value); !ok {
		arr = []Value{cur}
	}
	for at < len(arr) && !sameScalar(arr[at], v) {
		at++
	}
	return arr, at
}

// sameScalar is identity of two non-array values: floats compare by bits, so
// that NaN finds itself and -0 does not find 0.
func sameScalar(a, b Value) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case []Value:
		return false
	}
	_, bList := b.([]Value)
	return !bList && a == b
}

func appendProp(props map[string]Value, key string, v Value) {
	cur, ok := props[key]
	if !ok {
		props[key] = v
		return
	}
	if arr, isArr := cur.([]Value); isArr {
		props[key] = append(arr, v)
		return
	}
	props[key] = []Value{cur, v}
}

// Labels returns all distinct node labels, sorted.
func (s *Store) Labels() []string {
	out := make([]string, 0, len(s.byLabel))
	for l := range s.byLabel {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// EdgeLabels returns all distinct edge labels, sorted.
func (s *Store) EdgeLabels() []string {
	out := make([]string, 0, len(s.byEdgeLabel))
	for l := range s.byEdgeLabel {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
