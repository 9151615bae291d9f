package pg

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// deepClone is what Store.Clone used to be — a fresh record and fresh index
// lists for every node and edge — kept as the test oracle: it shares nothing
// with s by construction.
func deepClone(s *Store) *Store {
	c := NewStore()
	for i := 0; i < s.NumNodes(); i++ {
		n := s.Node(NodeID(i))
		c.AddNode(n.Labels(), deepProps(n.asMap()))
	}
	for i := 0; i < s.NumEdges(); i++ {
		e := s.Edge(EdgeID(i))
		c.AddEdge(e.From, e.To, e.Label(), deepProps(e.asMap()))
	}
	return c
}

// asMap is a record the way the reference model holds it.
func (r record) asMap() map[string]Value {
	m := make(map[string]Value, r.NumProps())
	for i := 0; i < r.NumProps(); i++ {
		k, v := r.PropAt(i)
		m[k] = v
	}
	return m
}

func mapsEqual(a, b map[string]Value) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || !ValueEqual(va, vb) {
			return false
		}
	}
	return true
}

func deepProps(props map[string]Value) map[string]Value {
	c := make(map[string]Value, len(props))
	for k, v := range props {
		if list, ok := v.([]Value); ok {
			v = append([]Value(nil), list...)
		}
		c[k] = v
	}
	return c
}

// The plain model of a store: records by id, nothing shared, nothing indexed.
type nodeModel struct {
	labels []string
	props  map[string]Value
}

type edgeModel struct {
	from, to NodeID
	label    string
	props    map[string]Value
}

type storeModel struct {
	nodes []nodeModel
	edges []edgeModel
}

func (m *storeModel) clone() *storeModel {
	c := &storeModel{}
	for _, n := range m.nodes {
		c.nodes = append(c.nodes, nodeModel{labels: append([]string(nil), n.labels...), props: deepProps(n.props)})
	}
	for _, e := range m.edges {
		e.props = deepProps(e.props)
		c.edges = append(c.edges, e)
	}
	return c
}

func modelAppend(props map[string]Value, key string, v Value) {
	cur, ok := props[key]
	switch arr, isArr := cur.([]Value); {
	case !ok:
		props[key] = v
	case isArr:
		props[key] = append(append([]Value(nil), arr...), v)
	default:
		props[key] = []Value{cur, v}
	}
}

type storeMember struct {
	s      *Store
	model  *storeModel
	oracle *Store // deepClone taken when the member was cloned
	frozen bool   // never mutated after its Clone: must keep equalling oracle
}

// TestCloneContract is the property test for "mutating either side after
// Clone is invisible to the other": a family of stores related by Clone
// (clones of clones included), each checked against its own model — records
// and every index — after random AddNode, AddEdge, SetProp, AppendProp,
// AppendEdgeProp and AddLabel calls on random members.
func TestCloneContract(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { cloneContract(t, seed) })
	}
}

func cloneContract(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"Person", "Student", "Course", "Dept", "STRING"}
	keys := []string{"name", "alias", "age"}
	iriOf := func(i int) string { return fmt.Sprintf("http://example.org/n%d", i) }

	fam := []*storeMember{{s: NewStore(), model: &storeModel{}}}
	addNode := func(m *storeMember) {
		l := labels[rng.Intn(len(labels))]
		iri := iriOf(len(m.model.nodes))
		m.s.AddNode([]string{l}, map[string]Value{"iri": iri})
		m.model.nodes = append(m.model.nodes, nodeModel{labels: []string{l}, props: map[string]Value{"iri": iri}})
	}
	for i := 0; i < 300; i++ { // more than one table page of nodes
		addNode(fam[0])
	}

	check := func(step int, what string) {
		t.Helper()
		for mi, m := range fam {
			ctx := fmt.Sprintf("step %d (%s), member %d", step, what, mi)
			if m.s.NumNodes() != len(m.model.nodes) || m.s.NumEdges() != len(m.model.edges) {
				t.Fatalf("%s: %d nodes / %d edges, want %d / %d", ctx, m.s.NumNodes(), m.s.NumEdges(), len(m.model.nodes), len(m.model.edges))
			}
			byLabel := map[string][]NodeID{}
			for i, want := range m.model.nodes {
				n := m.s.Node(NodeID(i))
				if fmt.Sprint(n.Labels()) != fmt.Sprint(want.labels) || !mapsEqual(n.asMap(), want.props) {
					t.Fatalf("%s: node %d = %v %v, want %v %v", ctx, i, n.Labels(), n.asMap(), want.labels, want.props)
				}
				for _, l := range want.labels {
					byLabel[l] = append(byLabel[l], NodeID(i))
				}
				if got, ok := m.s.NodeByIRI(iriOf(i)); !ok || got.ID != NodeID(i) {
					t.Fatalf("%s: NodeByIRI(%s) = %v", ctx, iriOf(i), got)
				}
			}
			if _, ok := m.s.NodeByIRI(iriOf(len(m.model.nodes))); ok {
				t.Fatalf("%s: the iri index knows a node this member never added", ctx)
			}
			for _, l := range labels {
				got := append([]NodeID(nil), m.s.NodesByLabel(l)...)
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				if fmt.Sprint(got) != fmt.Sprint(byLabel[l]) {
					t.Fatalf("%s: NodesByLabel(%s) = %v, want %v", ctx, l, got, byLabel[l])
				}
			}
			out, in, edgeLabels := map[NodeID][]EdgeID{}, map[NodeID][]EdgeID{}, map[string]bool{}
			for i, want := range m.model.edges {
				e := m.s.Edge(EdgeID(i))
				if e.From != want.from || e.To != want.to || e.Label() != want.label || !mapsEqual(e.asMap(), want.props) {
					t.Fatalf("%s: edge %d = %+v, want %+v", ctx, i, e, want)
				}
				out[want.from] = append(out[want.from], EdgeID(i))
				in[want.to] = append(in[want.to], EdgeID(i))
				edgeLabels[want.label] = true
			}
			for i := range m.model.nodes {
				id := NodeID(i)
				if fmt.Sprint(m.s.Out(id)) != fmt.Sprint(out[id]) || fmt.Sprint(m.s.In(id)) != fmt.Sprint(in[id]) {
					t.Fatalf("%s: adjacency of node %d = %v / %v, want %v / %v", ctx, i, m.s.Out(id), m.s.In(id), out[id], in[id])
				}
			}
			if want := sortedSet(edgeLabels); fmt.Sprint(m.s.EdgeLabels()) != fmt.Sprint(want) {
				t.Fatalf("%s: EdgeLabels() = %v, want %v", ctx, m.s.EdgeLabels(), want)
			}
			if m.frozen && !m.s.Equal(m.oracle) {
				t.Fatalf("%s: a clone nobody mutated no longer equals the deep copy taken beside it", ctx)
			}
		}
	}

	const steps = 3000
	for step := 0; step < steps; step++ {
		m := fam[rng.Intn(len(fam))]
		what := ""
		// Half the writes go to a few hot nodes, so that their label and
		// array-valued property slices grow spare capacity worth fighting over.
		node := NodeID(rng.Intn(len(m.model.nodes)))
		if rng.Intn(2) == 0 {
			node = NodeID(rng.Intn(6))
		}
		key := keys[rng.Intn(len(keys))]
		switch op := rng.Intn(100); {
		case op < 3 && len(fam) < 7:
			fam = append(fam, &storeMember{s: m.s.Clone(), model: m.model.clone(), oracle: deepClone(m.s), frozen: true})
			continue
		case op < 6 && len(fam) > 2:
			m.frozen = false // thaw: from now on it is mutated like the others
			continue
		case m.frozen:
			continue
		case op < 20:
			what = "AddNode"
			addNode(m)
		case op < 45:
			what = "AddEdge"
			to := NodeID(rng.Intn(len(m.model.nodes)))
			m.s.AddEdge(node, to, key, nil)
			m.model.edges = append(m.model.edges, edgeModel{from: node, to: to, label: key, props: map[string]Value{}})
		case op < 60:
			what = "SetProp"
			v := int64(rng.Intn(1000))
			m.s.SetProp(node, key, v)
			m.model.nodes[node].props[key] = v
		case op < 80:
			what = "AppendProp"
			v := fmt.Sprint("v", rng.Intn(1000))
			m.s.AppendProp(node, key, v)
			modelAppend(m.model.nodes[node].props, key, v)
		case op < 90 && len(m.model.edges) > 0:
			what = "AppendEdgeProp"
			e := EdgeID(rng.Intn(len(m.model.edges)))
			v := int64(rng.Intn(1000))
			m.s.AppendEdgeProp(e, key, v)
			modelAppend(m.model.edges[e].props, key, v)
		default:
			what = "AddLabel"
			l := labels[rng.Intn(len(labels))]
			m.s.AddLabel(node, l)
			have := false
			for _, x := range m.model.nodes[node].labels {
				have = have || x == l
			}
			if !have {
				ls := append(append([]string(nil), m.model.nodes[node].labels...), l)
				sort.Strings(ls)
				m.model.nodes[node].labels = ls
			}
		}
		if step%64 == 0 {
			check(step, what)
		}
	}
	check(steps, "end")
	if len(fam) < 4 {
		t.Fatalf("only %d family members: the schedule never cloned a clone", len(fam))
	}
}
