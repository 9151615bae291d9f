// Package pg implements the property graph data model of Definition 2.4:
// a node- and edge-labelled directed attributed multigraph whose nodes and
// edges carry records (key → value). The in-memory Store indexes nodes by
// label and by the unique "iri" property, and edges by their endpoints, which
// is what the Cypher engine and the transformation algorithms traverse. A
// mutator writes the record and the label lists only; the endpoint and iri
// indexes are brought up to date by the first read that needs them (index.go),
// so a store that is only built and exported never holds them.
//
// A node or an edge is a small record held by value in a paged table (package
// cow). Labels, edge labels and property keys are interned once per store; a
// node carries one id into a table of sorted label lists, and a record's
// properties are a slice sorted by key name. Records are read through the
// Node and Edge handles and written only through the Store's mutators
// (DESIGN.md §4 item 9; the sharing rules are in §9).
package pg

import (
	"fmt"
	"math"
	"slices"
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

// Sym is a name the store interned: a node label, an edge label or a property
// key. It means the same name in the store and in every clone taken after the
// name was first used, so a query resolves its names once (Store.Sym) and
// compares integers after.
type Sym uint32

// iriKey is the "iri" key: NewStore interns it first.
const iriKey Sym = 0

type prop struct {
	key Sym
	val Value
}

// nodeRec and edgeRec are what the tables hold. own says that this store
// made the props slice and every array value in it since the record's page
// became private to it: only then may they be written in place. A page copy
// clears it (disown), because the page left behind points to the same memory.
type nodeRec struct {
	set   uint32 // index into names.sets
	own   bool
	props []prop // sorted by key name; nil when empty
}

type edgeRec struct {
	from, to NodeID
	label    Sym
	own      bool
	props    []prop
}

func disownNode(r *nodeRec) { r.own = false }
func disownEdge(r *edgeRec) { r.own = false }

// record is the read side of a node's or an edge's properties; Node and
// Edge embed it.
type record struct {
	props []prop
	st    *names
}

// Prop returns the value of a property, nil when the record has none.
func (r record) Prop(key string) Value {
	for _, p := range r.props {
		if r.st.names[p.key] == key {
			return p.val
		}
	}
	return nil
}

// PropSym is Prop for a key resolved by Store.Sym.
func (r record) PropSym(k Sym) Value {
	for _, p := range r.props {
		if p.key == k {
			return p.val
		}
	}
	return nil
}

// NumProps returns the number of properties.
func (r record) NumProps() int { return len(r.props) }

// PropAt returns the i-th property in key order.
func (r record) PropAt(i int) (key string, v Value) {
	return r.st.names[r.props[i].key], r.props[i].val
}

// EncodeProps serializes the record in the tagged CSV cell codec (see the
// format comment in csv.go). Keys are emitted in sorted order, so equal
// records always encode to equal strings — the property that lets the
// incremental-transformation layer use encoded records as change-detection
// fingerprints and stream them to change subscribers verbatim.
func (r record) EncodeProps() (string, error) {
	if len(r.props) == 0 {
		return "", nil
	}
	var scratch [128]byte
	buf, _, err := r.st.appendProps(scratch[:0], r.props)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// Node is a read handle on a node as it was when taken from the store: its
// id, its label set and its record. The zero Node has neither.
type Node struct {
	ID NodeID
	record
	set uint32
}

func (n Node) labelSet() *labelSet {
	if n.st == nil {
		return &labelSet{}
	}
	return &n.st.sets[n.set]
}

// LabelSet identifies the node's label list: nodes with equal LabelSets have
// equal labels (the converse does not hold).
func (n Node) LabelSet() uint32 { return n.set }

// Labels returns the node's labels, sorted and duplicate-free. The slice is
// shared by every node with the same labels: the caller must not modify it.
func (n Node) Labels() []string { return n.labelSet().names }

// HasLabel reports whether the node carries the label.
func (n Node) HasLabel(l string) bool { return slices.Contains(n.labelSet().names, l) }

// HasLabelSym is HasLabel for a label resolved by Store.Sym.
func (n Node) HasLabelSym(l Sym) bool { return slices.Contains(n.labelSet().syms, l) }

// Edge is a read handle on a directed edge with a single label and a record.
type Edge struct {
	ID   EdgeID
	From NodeID
	To   NodeID
	record
	label Sym
}

// Label returns the edge's label.
func (e Edge) Label() string {
	if e.st == nil {
		return ""
	}
	return e.st.names[e.label]
}

// LabelSym returns the edge's label as the store interned it.
func (e Edge) LabelSym() Sym { return e.label }

// labelSet is one sorted label list. csv is the list as the node file's
// labels cell; sep says a label contains the cell's separator.
type labelSet struct {
	names []string
	syms  []Sym
	csv   string
	sep   bool
}

// names holds what a store interned. Nothing is reused or forgotten, so a
// clone's tables extend the ones it was taken from; like every append-only
// array here they are shared up to the clone's length, and only the store
// Clone was called on appends in place.
type names struct {
	names []string
	ids   cow.Map[string, Sym]

	// sets[0] is the empty set. Two ids may list the same labels when they
	// were reached in different orders; sets are compared by their names.
	sets  []labelSet
	wider cow.Map[uint64, uint32] // (set, label) → the set with the label added
}

// intern keeps a copy of a new name: callers pass slices of input lines.
func (st *names) intern(name string) Sym {
	id, ok := st.ids.Get(name)
	if !ok {
		id, name = Sym(len(st.names)), strings.Clone(name)
		st.names = append(st.names, name)
		st.ids.Put(name, id)
	}
	return id
}

func (st *names) clone() names {
	return names{names: slices.Clip(st.names), ids: st.ids.Clone(), sets: slices.Clip(st.sets), wider: st.wider.Clone()}
}

// with returns the set that is set plus label l.
func (st *names) with(set uint32, l Sym) uint32 {
	key := uint64(set)<<32 | uint64(l)
	if to, ok := st.wider.Get(key); ok {
		return to
	}
	cur, name, to := st.sets[set], st.names[l], set
	if at, has := slices.BinarySearch(cur.names, name); !has {
		next := labelSet{names: slices.Insert(slices.Clone(cur.names), at, name), syms: slices.Insert(slices.Clone(cur.syms), at, l)}
		next.csv, next.sep = strings.Join(next.names, ";"), cur.sep || strings.Contains(name, ";")
		to = uint32(len(st.sets))
		st.sets = append(st.sets, next)
	}
	st.wider.Put(key, to)
	return to
}

// search returns the index of key k in props, or where it goes and false.
func (st *names) search(props []prop, k Sym) (int, bool) {
	name := st.names[k]
	for i, p := range props {
		if p.key == k {
			return i, true
		}
		if st.names[p.key] > name {
			return i, false
		}
	}
	return len(props), false
}

// record lays a property map out as a record.
func (st *names) record(props map[string]Value) []prop {
	if len(props) == 0 {
		return nil
	}
	list := make([]prop, 0, len(props))
	for key, v := range props {
		k := st.intern(key)
		at, _ := st.search(list, k)
		list = slices.Insert(list, at, prop{k, v})
	}
	return list
}

// Store is an in-memory property graph. It is not safe for concurrent
// mutation (Clone counts as mutation); concurrent readers are safe once
// loading completes, including the first ones, which build the indexes.
type Store struct {
	nodes cow.Table[nodeRec]
	edges cow.Table[edgeRec]
	names names

	byLabel   [][]NodeID // by Sym; per-label lists are append-only
	edgeCount []int      // by Sym: how many edges carry the label

	// The derived indexes, up to date for the first edgesIndexed edges and
	// nodesIndexed nodes: the mutators do not write them, indexEdges and
	// indexIRIs catch them up before a read.
	out          cow.Lists[EdgeID]
	in           cow.Lists[EdgeID]
	byIRI        cow.Map[string, NodeID] // first node registered under each "iri" property
	iriShared    bool                    // some iri was registered by a second node
	edgesIndexed cow.Watermark
	nodesIndexed cow.Watermark
}

// NewStore returns an empty property graph.
func NewStore() *Store {
	s := &Store{}
	s.names.sets = []labelSet{{}}
	s.names.intern("iri")
	return s
}

// NumNodes returns the node count.
func (s *Store) NumNodes() int { return s.nodes.Len() }

// NumEdges returns the edge count.
func (s *Store) NumEdges() int { return s.edges.Len() }

// RelTypes returns the number of distinct edge labels.
func (s *Store) RelTypes() int { return len(s.EdgeLabels()) }

// Sym resolves a label, an edge label or a key; ok is false when the store
// never held the name.
func (s *Store) Sym(name string) (Sym, bool) { return s.names.ids.Get(name) }

// Intern returns the Sym of a label, an edge label or a key, adding the name
// to the store's names if it is new: a writer resolves its names once and
// passes Syms to the *Sym mutators after.
func (s *Store) Intern(name string) Sym { return s.names.intern(name) }

// KV is one property of a record created by Sym.
type KV struct {
	Key   Sym
	Value Value
}

// AddNode creates a node with the given labels and properties and returns it.
// Labels are deduplicated and sorted; the props map is read, not kept. If
// props contains a string "iri" property the node is registered in the unique
// IRI index (first writer wins) when the index is next read.
func (s *Store) AddNode(labels []string, props map[string]Value) Node {
	set := uint32(0)
	for _, l := range labels {
		if l != "" {
			set = s.names.with(set, s.names.intern(l))
		}
	}
	return s.addNode(set, s.names.record(props))
}

// AddNodeSym is AddNode by Sym. props must be in key-name order with no key
// twice, the order a record keeps; it is read, not kept.
func (s *Store) AddNodeSym(labels []Sym, props []KV) Node {
	set := uint32(0)
	for _, l := range labels {
		set = s.names.with(set, l)
	}
	return s.addNode(set, recordOf(props))
}

// recordOf copies KVs in key order into a record.
func recordOf(props []KV) []prop {
	if len(props) == 0 {
		return nil
	}
	list := make([]prop, len(props))
	for i, p := range props {
		list[i] = prop{p.Key, p.Value}
	}
	return list
}

func (s *Store) addNode(set uint32, list []prop) Node {
	id := NodeID(s.nodes.Len())
	*s.nodes.Edit(int(id), disownNode) = nodeRec{set: set, own: true, props: list}
	for _, l := range s.names.sets[set].syms {
		s.byLabel = listed(s.byLabel, l, id)
	}
	return Node{ID: id, record: record{list, &s.names}, set: set}
}

// listed appends id to the list of l, growing lists to hold it.
func listed(lists [][]NodeID, l Sym, id NodeID) [][]NodeID {
	for int(l) >= len(lists) {
		lists = append(lists, nil)
	}
	lists[l] = append(lists[l], id)
	return lists
}

// AddEdge creates a directed labelled edge. It panics if an endpoint id is
// out of range, which always indicates a caller bug.
func (s *Store) AddEdge(from, to NodeID, label string, props map[string]Value) Edge {
	return s.addEdge(from, to, s.names.intern(label), s.names.record(props))
}

// AddEdgeSym is AddEdge by Sym, for an edge with no properties.
func (s *Store) AddEdgeSym(from, to NodeID, label Sym) Edge {
	return s.addEdge(from, to, label, nil)
}

func (s *Store) addEdge(from, to NodeID, l Sym, list []prop) Edge {
	if int(from) >= s.nodes.Len() || int(to) >= s.nodes.Len() {
		panic(fmt.Sprintf("pg: edge endpoint out of range: %d -> %d (have %d nodes)", from, to, s.nodes.Len()))
	}
	id := EdgeID(s.edges.Len())
	*s.edges.Edit(int(id), disownEdge) = edgeRec{from: from, to: to, label: l, own: true, props: list}
	for int(l) >= len(s.edgeCount) {
		s.edgeCount = append(s.edgeCount, 0)
	}
	s.edgeCount[l]++
	return Edge{ID: id, From: from, To: to, record: record{list, &s.names}, label: l}
}

// Node returns the node by id; an id out of range gives a node with no
// label and no property.
func (s *Store) Node(id NodeID) Node {
	r := s.nodes.At(int(id))
	return Node{ID: id, record: record{r.props, &s.names}, set: r.set}
}

// Frozen returns Node(id) as a handle the store's later writes leave as it
// is: the next write to the node's record copies it first, as it does while a
// clone shares the record. A record no write follows costs nothing.
func (s *Store) Frozen(id NodeID) Node {
	if s.nodes.Private(int(id)) {
		s.nodes.Edit(int(id), nil).own = false
	}
	return s.Node(id)
}

// Edge returns the edge by id.
func (s *Store) Edge(id EdgeID) Edge {
	r := s.edges.At(int(id))
	return Edge{ID: id, From: r.from, To: r.to, record: record{r.props, &s.names}, label: r.label}
}

// NodesByLabel returns the ids of nodes carrying the label.
func (s *Store) NodesByLabel(label string) []NodeID {
	if l, ok := s.Sym(label); ok && int(l) < len(s.byLabel) {
		return s.byLabel[l]
	}
	return nil
}

// Out returns the outgoing edge ids of the node, in id order.
func (s *Store) Out(id NodeID) []EdgeID {
	s.edgesIndexed.CatchUp(s.edges.Len(), s.addEdges) // inlines; indexEdges does not
	return s.out.At(int(id))
}

// In returns the incoming edge ids of the node, in id order.
func (s *Store) In(id NodeID) []EdgeID {
	s.edgesIndexed.CatchUp(s.edges.Len(), s.addEdges)
	return s.in.At(int(id))
}

// IRIUnique reports whether NodeByIRI can stand in for a scan: no iri was
// ever registered by two nodes, so a node whose "iri" property is a given
// string is the one the index holds. S3PG stores keep it true (one node per
// resource); the Store itself does not enforce it.
func (s *Store) IRIUnique() bool {
	s.indexIRIs()
	return !s.iriShared
}

// NodeByIRI returns the first node registered under iri — the node whose
// "iri" property equals it, unless the property was rewritten since.
func (s *Store) NodeByIRI(iri string) (Node, bool) {
	s.nodesIndexed.CatchUp(s.nodes.Len(), s.addIRIs)
	id, ok := s.byIRI.Get(iri)
	if !ok {
		return Node{}, false
	}
	return s.Node(id), true
}

// mutNode returns node id's record for writing its key k, its props slice
// (with room for that many more entries) and array values private to this
// store. This and mutEdge are the only places a record of an existing element
// is written, so they are where copy-on-write is enforced — and, for the iri
// key, where the iri index catches up first: it registers a node's iri as it
// was when the node was added.
func (s *Store) mutNode(id NodeID, k Sym, room int) *nodeRec {
	if k == iriKey {
		s.indexIRIs()
	}
	r := s.nodes.Edit(int(id), disownNode)
	if !r.own {
		r.props, r.own = privateProps(r.props, room), true
	}
	return r
}

func (s *Store) mutEdge(id EdgeID, room int) *edgeRec {
	r := s.edges.Edit(int(id), disownEdge)
	if !r.own {
		r.props, r.own = privateProps(r.props, room), true
	}
	return r
}

// privateProps copies a record a clone may read. Array values keep their
// elements but lose their spare capacity: appendProp extends them with
// append, which must not write into an array a clone still reads.
func privateProps(props []prop, room int) []prop {
	if len(props)+room == 0 {
		return nil
	}
	c := make([]prop, len(props), len(props)+room)
	for i, p := range props {
		if list, ok := p.val.([]Value); ok && cap(list) > len(list) {
			p.val = slices.Clip(list)
		}
		c[i] = p
	}
	return c
}

// AddLabel adds a label to an existing node, keeping indexes consistent.
func (s *Store) AddLabel(id NodeID, label string) {
	if label != "" {
		s.addLabel(id, s.names.intern(label))
	}
}

// AddLabelSym is AddLabel by Sym.
func (s *Store) AddLabelSym(id NodeID, l Sym) { s.addLabel(id, l) }

func (s *Store) addLabel(id NodeID, l Sym) {
	set := s.nodes.At(int(id)).set
	if to := s.names.with(set, l); to != set {
		s.nodes.Edit(int(id), disownNode).set = to
		s.byLabel = listed(s.byLabel, l, id)
	}
}

// SetProp sets a property on a node. Setting "iri" registers the node in the
// IRI index when the slot is free.
func (s *Store) SetProp(id NodeID, key string, v Value) {
	k := s.names.intern(key)
	r := s.mutNode(id, k, 1)
	if at, found := s.names.search(r.props, k); found {
		r.props[at].val = v
	} else {
		r.props = slices.Insert(r.props, at, prop{k, v})
	}
	if iri, ok := v.(string); ok && k == iriKey {
		s.indexIRI(iri, id)
	}
}

// AppendProp appends a value to a node property, promoting a scalar to an
// array. It is the primitive used for multi-valued key/value properties.
func (s *Store) AppendProp(id NodeID, key string, v Value) {
	s.AppendPropSym(id, s.names.intern(key), v)
}

// AppendPropSym is AppendProp by Sym.
func (s *Store) AppendPropSym(id NodeID, k Sym, v Value) {
	r := s.mutNode(id, k, 1)
	r.props = s.names.appendProp(r.props, k, v)
}

// AppendEdgeProp is AppendProp for an edge record (RDF-star annotations).
func (s *Store) AppendEdgeProp(id EdgeID, key string, v Value) {
	r := s.mutEdge(id, 1)
	r.props = s.names.appendProp(r.props, s.names.intern(key), v)
}

// appendProp is AppendProp on a private record.
func (st *names) appendProp(props []prop, k Sym, v Value) []prop {
	at, found := st.search(props, k)
	if !found {
		return slices.Insert(props, at, prop{k, v})
	}
	if arr, isArr := props[at].val.([]Value); isArr {
		props[at].val = append(arr, v)
	} else {
		props[at].val = []Value{props[at].val, v}
	}
	return props
}

// HasPropValue reports whether a node property is v or an array holding v.
func (s *Store) HasPropValue(id NodeID, key string, v Value) bool {
	arr, at := propValues(s.Node(id).Prop(key), v)
	return at < len(arr)
}

// RemovePropValue undoes one AppendProp: it takes the first occurrence of v
// out of a node property, an array left with one value becomes that scalar
// again, and a property left with none is deleted. It reports whether v was
// there.
func (s *Store) RemovePropValue(id NodeID, key string, v Value) bool {
	arr, at := propValues(s.Node(id).Prop(key), v)
	if at == len(arr) {
		return false
	}
	k := s.names.intern(key)
	r := s.mutNode(id, k, 0)
	i, _ := s.names.search(r.props, k)
	switch len(arr) {
	case 1:
		if r.props = slices.Delete(r.props, i, i+1); len(r.props) == 0 {
			r.props = nil
		}
	case 2:
		r.props[i].val = arr[1-at]
	default:
		// A new array: a clone may be reading the old one.
		r.props[i].val = slices.Delete(slices.Clone(arr), at, at+1)
	}
	return true
}

// propValues returns the values of a property as a list and the index of the
// first that is v (the list's length when none is).
func propValues(cur, v Value) (arr []Value, at int) {
	if cur == nil {
		return nil, 0
	}
	arr, ok := cur.([]Value)
	if !ok {
		arr = []Value{cur}
	}
	for at < len(arr) && !SameValue(arr[at], v) {
		at++
	}
	return arr, at
}

// SameValue is identity of two values, arrays element by element: no numeric
// coercion, and floats compare by bits, so that NaN finds itself and -0 does
// not find 0 (the two encode apart).
func SameValue(a, b Value) bool {
	switch x := a.(type) {
	case []Value:
		y, ok := b.([]Value)
		return ok && slices.EqualFunc(x, y, SameValue)
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	_, bList := b.([]Value)
	return !bList && a == b
}

// Labels returns all distinct node labels, sorted.
func (s *Store) Labels() []string {
	return used(s.names.names, len(s.byLabel), func(l int) bool { return len(s.byLabel[l]) > 0 })
}

// EdgeLabels returns all distinct edge labels, sorted.
func (s *Store) EdgeLabels() []string {
	return used(s.names.names, len(s.edgeCount), func(l int) bool { return s.edgeCount[l] > 0 })
}

// used returns, sorted, the names of the first n Syms that are in use.
func used(names []string, n int, inUse func(l int) bool) []string {
	out := make([]string, 0, n)
	for l := range n {
		if inUse(l) {
			out = append(out, names[l])
		}
	}
	sort.Strings(out)
	return out
}
