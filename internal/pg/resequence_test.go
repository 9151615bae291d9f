package pg

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// rebuilt is the model as a store made through the append path alone: what
// Resequence must leave, records and indexes, when every node was labelled at
// creation.
func rebuilt(m *storeModel) *Store {
	s := NewStore()
	for _, n := range m.nodes {
		s.AddNode(n.labels, deepProps(n.props))
	}
	for _, e := range m.edges {
		s.AddEdge(e.from, e.to, e.label, deepProps(e.props))
	}
	return s
}

func sameStore(t *testing.T, ctx string, got, want *Store) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s: records differ", ctx)
	}
	if !reflect.DeepEqual(got.Labels(), want.Labels()) || !reflect.DeepEqual(got.EdgeLabels(), want.EdgeLabels()) {
		t.Fatalf("%s: labels %v %v, want %v %v", ctx, got.Labels(), got.EdgeLabels(), want.Labels(), want.EdgeLabels())
	}
	for _, l := range want.Labels() {
		if fmt.Sprint(got.NodesByLabel(l)) != fmt.Sprint(want.NodesByLabel(l)) {
			t.Fatalf("%s: NodesByLabel(%s) = %v, want %v", ctx, l, got.NodesByLabel(l), want.NodesByLabel(l))
		}
	}
	for i := 0; i < want.NumNodes(); i++ {
		id := NodeID(i)
		if got.Node(id).ID != id {
			t.Fatalf("%s: node at %d says it is %d", ctx, i, got.Node(id).ID)
		}
		if fmt.Sprint(got.Out(id)) != fmt.Sprint(want.Out(id)) || fmt.Sprint(got.In(id)) != fmt.Sprint(want.In(id)) {
			t.Fatalf("%s: adjacency of node %d = %v / %v, want %v / %v", ctx, i, got.Out(id), got.In(id), want.Out(id), want.In(id))
		}
		if iri, ok := want.Node(id).Prop("iri").(string); ok {
			w, _ := want.NodeByIRI(iri)
			if g, ok := got.NodeByIRI(iri); !ok || g.ID != w.ID {
				t.Fatalf("%s: NodeByIRI(%s) = %v, want node %d", ctx, iri, g, w.ID)
			}
		}
	}
	for i := 0; i < want.NumEdges(); i++ {
		if e := got.Edge(EdgeID(i)); e.ID != EdgeID(i) {
			t.Fatalf("%s: edge at %d says it is %d", ctx, i, e.ID)
		}
	}
}

// resequence applies the script to the model the plain way: lay the new node
// order out, renumber.
func (m *storeModel) resequence(drop []NodeID, moves []NodeMove, dropEdges []EdgeID) {
	n := len(m.nodes)
	lifted := make(map[NodeID]bool)
	for _, id := range drop {
		lifted[id] = true
	}
	for _, mv := range moves {
		lifted[mv.ID] = true
	}
	var order []NodeID
	for i := 0; i <= n; i++ {
		for _, mv := range moves {
			if int(mv.Before) == i {
				order = append(order, mv.ID)
			}
		}
		if i < n && !lifted[NodeID(i)] {
			order = append(order, NodeID(i))
		}
	}
	newID := make(map[NodeID]NodeID)
	var nodes []nodeModel
	for _, old := range order {
		newID[old] = NodeID(len(nodes))
		nodes = append(nodes, m.nodes[old])
	}
	gone := make(map[EdgeID]bool)
	for _, id := range dropEdges {
		gone[id] = true
	}
	var edges []edgeModel
	for i, e := range m.edges {
		if !gone[EdgeID(i)] {
			e.from, e.to = newID[e.from], newID[e.to]
			edges = append(edges, e)
		}
	}
	m.nodes, m.edges = nodes, edges
}

// TestResequenceCloneContract: Resequence (and RemovePropValue) on any member
// of a family of stores related by Clone leaves that member equal, records
// and every index, to a store built from scratch in the new order, and is
// invisible to every other member — frozen clones keep equalling the deep
// copy taken beside them.
func TestResequenceCloneContract(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { resequenceContract(t, seed) })
	}
}

func resequenceContract(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"Person", "Course", "STRING", "YEAR"}
	fam := []*storeMember{{s: NewStore(), model: &storeModel{}}}
	serial := 0
	addNode := func(m *storeMember) {
		serial++
		l := labels[rng.Intn(len(labels))]
		props := map[string]Value{"value": int64(serial)}
		if rng.Intn(2) == 0 {
			props = map[string]Value{"iri": fmt.Sprint("http://example.org/n", serial)}
		}
		m.s.AddNode([]string{l}, deepProps(props))
		m.model.nodes = append(m.model.nodes, nodeModel{labels: []string{l}, props: props})
	}
	addEdge := func(m *storeMember) {
		from, to := NodeID(rng.Intn(len(m.model.nodes))), NodeID(rng.Intn(len(m.model.nodes)))
		label := []string{"knows", "name", "dob"}[rng.Intn(3)]
		m.s.AddEdge(from, to, label, nil)
		m.model.edges = append(m.model.edges, edgeModel{from: from, to: to, label: label, props: map[string]Value{}})
	}
	for i := 0; i < 300; i++ { // more than one table page
		addNode(fam[0])
	}
	for i := 0; i < 500; i++ {
		addEdge(fam[0])
	}
	check := func(step int, what string) {
		t.Helper()
		for mi, m := range fam {
			ctx := fmt.Sprintf("step %d (%s), member %d", step, what, mi)
			sameStore(t, ctx, m.s, rebuilt(m.model))
			if m.frozen && !m.s.Equal(m.oracle) {
				t.Fatalf("%s: a clone nobody mutated no longer equals the deep copy taken beside it", ctx)
			}
		}
	}
	for step := 0; step < 400; step++ {
		m := fam[rng.Intn(len(fam))]
		what := ""
		switch op := rng.Intn(100); {
		case op < 8 && len(fam) < 6:
			fam = append(fam, &storeMember{s: m.s.Clone(), model: m.model.clone(), oracle: deepClone(m.s), frozen: true})
			continue
		case op < 12 && len(fam) > 2:
			m.frozen = false
			continue
		case m.frozen:
			continue
		case op < 30:
			what = "AddNode"
			addNode(m)
		case op < 55:
			what = "AddEdge"
			addEdge(m)
		case op < 70:
			what = "AppendProp/RemovePropValue"
			id := NodeID(rng.Intn(len(m.model.nodes)))
			v := fmt.Sprint("v", rng.Intn(4))
			props := m.model.nodes[id].props
			if rng.Intn(2) == 0 {
				m.s.AppendProp(id, "alias", v)
				modelAppend(props, "alias", v)
				break
			}
			arr, at := propValues(props["alias"], v)
			if got := m.s.RemovePropValue(id, "alias", v); got != (at < len(arr)) {
				t.Fatalf("step %d: RemovePropValue = %v on %v", step, got, props["alias"])
			}
			switch {
			case at == len(arr):
			case len(arr) == 1:
				delete(props, "alias")
			case len(arr) == 2:
				props["alias"] = arr[1-at]
			default:
				props["alias"] = append(append([]Value(nil), arr[:at]...), arr[at+1:]...)
			}
		default:
			what = "Resequence"
			n := len(m.model.nodes)
			used := make(map[NodeID]bool)
			pick := func() NodeID {
				for {
					if id := NodeID(rng.Intn(n)); !used[id] {
						used[id] = true
						return id
					}
				}
			}
			var drop []NodeID
			var moves []NodeMove
			for i := rng.Intn(4); i > 0; i-- {
				drop = append(drop, pick())
			}
			for i := rng.Intn(4); i > 0; i-- {
				moves = append(moves, NodeMove{ID: pick(), Before: NodeID(rng.Intn(n + 1)), Relist: true})
			}
			dropped := make(map[NodeID]bool)
			for _, id := range drop {
				dropped[id] = true
			}
			var dropEdges []EdgeID
			for i, e := range m.model.edges {
				if dropped[e.from] || dropped[e.to] || rng.Intn(40) == 0 {
					dropEdges = append(dropEdges, EdgeID(i))
				}
			}
			nodeMap := m.s.Resequence(drop, moves, dropEdges)
			m.model.resequence(drop, moves, dropEdges)
			for old, id := range nodeMap {
				if dropped[NodeID(old)] != (id == NoNode) {
					t.Fatalf("step %d: node %d mapped to %d, dropped: %v", step, old, id, dropped[NodeID(old)])
				}
			}
		}
		if step%8 == 0 || what == "Resequence" {
			check(step, what)
		}
	}
	check(-1, "end")
	if len(fam) < 4 {
		t.Fatalf("only %d family members", len(fam))
	}
}

// TestResequenceKeepsLabellingOrder: a node moved without Relist keeps its
// place in its label lists (an entity labelled after it was created, whose
// list is in labelling order); with Relist it is put back in id order.
func TestResequenceKeepsLabellingOrder(t *testing.T) {
	build := func() *Store {
		s := NewStore()
		for i := 0; i < 4; i++ {
			s.AddNode([]string{"V"}, nil)
		}
		a, b := s.AddNode(nil, nil).ID, s.AddNode(nil, nil).ID
		s.AddLabel(b, "Person")
		s.AddLabel(a, "Person")
		return s
	}
	moves := []NodeMove{{ID: 4, Before: 1}, {ID: 5, Before: 1}}
	s := build()
	s.Resequence(nil, moves, nil)
	if got := fmt.Sprint(s.NodesByLabel("Person"), s.NodesByLabel("V")); got != "[2 1] [0 3 4 5]" {
		t.Fatalf("kept places: %s", got)
	}
	s = build()
	moves[0].Relist, moves[1].Relist = true, true
	s.Resequence(nil, moves, nil)
	if got := fmt.Sprint(s.NodesByLabel("Person")); got != "[1 2]" {
		t.Fatalf("relisted: %s", got)
	}
}

func TestResequenceRejectsDanglingEdge(t *testing.T) {
	s := NewStore()
	a, b := s.AddNode(nil, nil).ID, s.AddNode(nil, nil).ID
	s.AddEdge(a, b, "knows", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("dropping a node and keeping its edge did not panic")
		}
	}()
	s.Resequence([]NodeID{b}, nil, nil)
}

// TestSameValue: identity, not equality — no numeric coercion, floats by
// their bits, arrays element by element.
func TestSameValue(t *testing.T) {
	negZero, nan := math.Copysign(0, -1), math.NaN()
	for _, c := range []struct {
		a, b Value
		want bool
	}{
		{nan, nan, true},
		{0.0, negZero, false},
		{int64(1), 1.0, false},
		{"x", "x", true},
		{"x", []Value{"x"}, false},
		{[]Value{"x"}, "x", false},
		{[]Value{nan, int64(2)}, []Value{nan, int64(2)}, true},
		{[]Value{0.0}, []Value{negZero}, false},
		{[]Value{"x"}, []Value{"x", "y"}, false},
	} {
		if got := SameValue(c.a, c.b); got != c.want {
			t.Errorf("SameValue(%#v, %#v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRemovePropValue(t *testing.T) {
	s := NewStore()
	id := s.AddNode(nil, nil).ID
	for _, v := range []Value{math.NaN(), 0.0, math.Copysign(0, -1), "x"} {
		s.AppendProp(id, "k", v)
	}
	snapshot := s.Clone()
	if s.RemovePropValue(id, "k", "y") || s.RemovePropValue(id, "none", "x") {
		t.Fatal("removed a value that was not there")
	}
	if !s.RemovePropValue(id, "k", math.Copysign(0, -1)) {
		t.Fatal("-0 not found")
	}
	if arr := s.Node(id).Prop("k").([]Value); len(arr) != 3 || math.Signbit(arr[1].(float64)) {
		t.Fatalf("removing -0 took 0: %v", arr)
	}
	if !s.RemovePropValue(id, "k", math.NaN()) || !s.RemovePropValue(id, "k", 0.0) {
		t.Fatal("NaN or 0 not found")
	}
	if v := s.Node(id).Prop("k"); v != "x" {
		t.Fatalf("one value left = %#v, want the scalar", v)
	}
	if !s.RemovePropValue(id, "k", "x") {
		t.Fatal("scalar not found")
	}
	if s.Node(id).Prop("k") != nil {
		t.Fatal("the key outlived its last value")
	}
	if arr := snapshot.Node(id).Prop("k").([]Value); len(arr) != 4 {
		t.Fatalf("the clone saw the removals: %v", arr)
	}
}
