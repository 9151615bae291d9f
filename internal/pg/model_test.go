package pg

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The map-based representation the store had before its records moved into
// pages lives on here, as the reference model (storeModel, clone_test.go)
// every store operation is checked against.

// modelEncode is the record codec over a map: sort the keys, then encode
// each entry with the reference codec below.
func modelEncode(t testing.TB, props map[string]Value) string {
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(sepEntry)
		}
		v, err := refValue(props[k], false)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(refEscaper.Replace(k) + string(rune(sepKV)) + v)
	}
	return b.String()
}

// refEscaper and refValue are the cell codec as it was written before the row
// encoder escaped and decided CSV quoting in one pass: the oracle for
// appendEscaped and appendValue.
var refEscaper = strings.NewReplacer("\\", "\\\\", "\x1d", "\\g", "\x1e", "\\r", "\x1f", "\\u")

func refValue(v Value, nested bool) (string, error) {
	switch x := v.(type) {
	case string:
		return "s:" + refEscaper.Replace(x), nil
	case int64:
		return "i:" + strconv.FormatInt(x, 10), nil
	case float64:
		return "f:" + strconv.FormatFloat(x, 'g', -1, 64), nil
	case bool:
		return "b:" + strconv.FormatBool(x), nil
	case []Value:
		if nested {
			return "", fmt.Errorf("pg: nested arrays are not supported")
		}
		parts := make([]string, len(x))
		for i, e := range x {
			var err error
			if parts[i], err = refValue(e, true); err != nil {
				return "", err
			}
		}
		return "a:" + strings.Join(parts, string(rune(sepElem))), nil
	}
	return "", fmt.Errorf("pg: unsupported property value type %T", v)
}

// csv renders the model as the two export files.
func (m *storeModel) csv(t testing.TB) (nodes, edges []byte) {
	var nb, eb bytes.Buffer
	nw, ew := csv.NewWriter(&nb), csv.NewWriter(&eb)
	for i, n := range m.nodes {
		nw.Write([]string{strconv.Itoa(i), strings.Join(n.labels, ";"), modelEncode(t, n.props)})
	}
	for i, e := range m.edges {
		ew.Write([]string{strconv.Itoa(i), strconv.Itoa(int(e.from)), strconv.Itoa(int(e.to)), e.label, modelEncode(t, e.props)})
	}
	nw.Flush()
	ew.Flush()
	return nb.Bytes(), eb.Bytes()
}

// sortedSet returns the members of a set, sorted.
func sortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// removeValue is RemovePropValue on the model.
func (m *storeModel) removeValue(id NodeID, key string, v Value) bool {
	props := m.nodes[id].props
	arr, at := propValues(props[key], v)
	switch {
	case at == len(arr):
		return false
	case len(arr) == 1:
		delete(props, key)
	case len(arr) == 2:
		props[key] = arr[1-at]
	default:
		props[key] = append(append([]Value(nil), arr[:at]...), arr[at+1:]...)
	}
	return true
}

func (m *storeModel) addLabel(id NodeID, l string) {
	n := &m.nodes[id]
	for _, x := range n.labels {
		if x == l {
			return
		}
	}
	n.labels = append(append([]string(nil), n.labels...), l)
	sort.Strings(n.labels)
}

// agrees checks every read the store offers against the model: accessors,
// indexes, both export paths byte for byte, and the load of the export.
func (m *storeModel) agrees(t testing.TB, ctx string, s *Store, labels, keys []string) {
	t.Helper()
	if s.NumNodes() != len(m.nodes) || s.NumEdges() != len(m.edges) {
		t.Fatalf("%s: %d nodes / %d edges, want %d / %d", ctx, s.NumNodes(), s.NumEdges(), len(m.nodes), len(m.edges))
	}
	byLabel := map[string][]NodeID{}
	for i, want := range m.nodes {
		n := s.Node(NodeID(i))
		if n.ID != NodeID(i) || !reflect.DeepEqual(append([]string(nil), n.Labels()...), append([]string(nil), want.labels...)) {
			t.Fatalf("%s: node %d = id %d labels %v, want %v", ctx, i, n.ID, n.Labels(), want.labels)
		}
		for _, l := range labels {
			has := false
			for _, x := range want.labels {
				has = has || x == l
			}
			id, known := s.Sym(l)
			if n.HasLabel(l) != has || (known && n.HasLabelSym(id) != has) || (!known && has) {
				t.Fatalf("%s: node %d HasLabel(%s) != %v", ctx, i, l, has)
			}
		}
		m.recordAgrees(t, fmt.Sprintf("%s: node %d", ctx, i), s, n.record, want.props, keys)
		for _, l := range want.labels {
			byLabel[l] = append(byLabel[l], NodeID(i))
		}
		if iri, ok := want.props["iri"].(string); ok && s.IRIUnique() {
			if got, ok := s.NodeByIRI(iri); !ok || got.ID != n.ID {
				t.Fatalf("%s: IRIUnique, yet NodeByIRI(%s) = %v %v, want node %d", ctx, iri, got.ID, ok, i)
			}
		}
	}
	var used []string
	for _, l := range labels {
		got := append([]NodeID(nil), s.NodesByLabel(l)...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if fmt.Sprint(got) != fmt.Sprint(byLabel[l]) {
			t.Fatalf("%s: NodesByLabel(%s) = %v, want %v", ctx, l, got, byLabel[l])
		}
		if len(got) > 0 {
			used = append(used, l)
		}
	}
	sort.Strings(used)
	if fmt.Sprint(s.Labels()) != fmt.Sprint(used) {
		t.Fatalf("%s: Labels() = %v, want %v", ctx, s.Labels(), used)
	}

	out, in, edgeLabels := map[NodeID][]EdgeID{}, map[NodeID][]EdgeID{}, map[string]bool{}
	for i, want := range m.edges {
		e := s.Edge(EdgeID(i))
		if e.ID != EdgeID(i) || e.From != want.from || e.To != want.to || e.Label() != want.label {
			t.Fatalf("%s: edge %d = %d: %d -[%s]-> %d, want %+v", ctx, i, e.ID, e.From, e.Label(), e.To, want)
		}
		if id, ok := s.Sym(want.label); !ok || id != e.LabelSym() {
			t.Fatalf("%s: edge %d LabelSym = %d, Sym(%s) = %d %v", ctx, i, e.LabelSym(), want.label, id, ok)
		}
		m.recordAgrees(t, fmt.Sprintf("%s: edge %d", ctx, i), s, e.record, want.props, keys)
		out[want.from] = append(out[want.from], EdgeID(i))
		in[want.to] = append(in[want.to], EdgeID(i))
		edgeLabels[want.label] = true
	}
	for i := range m.nodes {
		id := NodeID(i)
		if fmt.Sprint(s.Out(id)) != fmt.Sprint(out[id]) || fmt.Sprint(s.In(id)) != fmt.Sprint(in[id]) {
			t.Fatalf("%s: adjacency of node %d = %v / %v, want %v / %v", ctx, i, s.Out(id), s.In(id), out[id], in[id])
		}
	}
	if want := sortedSet(edgeLabels); s.RelTypes() != len(want) || fmt.Sprint(s.EdgeLabels()) != fmt.Sprint(want) {
		t.Fatalf("%s: RelTypes %d, EdgeLabels %v, want %v", ctx, s.RelTypes(), s.EdgeLabels(), want)
	}

	wantN, wantE := m.csv(t)
	var gotN, gotE, parN, parE bytes.Buffer
	if err := s.WriteCSV(&gotN, &gotE); err != nil {
		t.Fatalf("%s: WriteCSV: %v", ctx, err)
	}
	if !bytes.Equal(gotN.Bytes(), wantN) || !bytes.Equal(gotE.Bytes(), wantE) {
		t.Fatalf("%s: export differs from the model's\nnodes:\n%q\nwant:\n%q\nedges:\n%q\nwant:\n%q", ctx, gotN.Bytes(), wantN, gotE.Bytes(), wantE)
	}
	if err := s.WriteCSVParallel(&parN, &parE, 3); err != nil || !bytes.Equal(parN.Bytes(), wantN) || !bytes.Equal(parE.Bytes(), wantE) {
		t.Fatalf("%s: parallel export differs (err %v)", ctx, err)
	}
	back, err := LoadCSV(bytes.NewReader(wantN), bytes.NewReader(wantE))
	if err != nil || !back.Equal(s) || !s.Equal(back) {
		t.Fatalf("%s: the export does not load Equal (err %v)", ctx, err)
	}
}

func (m *storeModel) recordAgrees(t testing.TB, ctx string, s *Store, r record, want map[string]Value, keys []string) {
	t.Helper()
	if r.NumProps() != len(want) {
		t.Fatalf("%s: %d properties %v, want %v", ctx, r.NumProps(), r.asMap(), want)
	}
	prev := ""
	for i := 0; i < r.NumProps(); i++ {
		k, v := r.PropAt(i)
		if i > 0 && k <= prev {
			t.Fatalf("%s: PropAt order %q after %q", ctx, k, prev)
		}
		if w, ok := want[k]; !ok || !reflect.DeepEqual(v, w) {
			t.Fatalf("%s: %q = %#v, want %#v (%v)", ctx, k, v, w, ok)
		}
		prev = k
	}
	for _, k := range keys {
		id, known := s.Sym(k)
		if got := r.Prop(k); !reflect.DeepEqual(got, want[k]) || (known && !reflect.DeepEqual(r.PropSym(id), want[k])) || (!known && want[k] != nil) {
			t.Fatalf("%s: Prop(%q) = %#v, want %#v", ctx, k, got, want[k])
		}
	}
	if got, err := r.EncodeProps(); err != nil || got != modelEncode(t, want) {
		t.Fatalf("%s: EncodeProps = %q, %v; want %q", ctx, got, err, modelEncode(t, want))
	}
}

// A storeOp is one step of a script run against a family of stores related
// by Clone and their models. on picks the member; a, b, c are operands taken
// modulo what the member has.
type storeOp struct {
	kind       string
	on         int
	a, b, c    int
	key, label string
	v          Value
}

var (
	opLabels = []string{"Person", "Student", "Course", "STRING"}
	opKeys   = []string{"iri", "name", "alias", "age", "k\x1fey", "zeta", "beta"}
	opValues = []Value{"a", "b\x1e\\", int64(7), int64(-1), 2.5, true, false, "http://ex.org/n1", "http://ex.org/n2"}
)

// runStoreOps applies the script, checking every member against its model
// after every step: a clone taken along the way must keep equalling the
// model's copy from that moment, whatever the others do. Every member has a
// twin that takes the same mutations, Clone and Resequence included, and that
// nothing reads until the last step: then it must equal the model too, and
// its indexes, built from scratch by that first read, must answer as the
// member's, which were caught up after every step.
func runStoreOps(t testing.TB, ops []storeOp) {
	t.Helper()
	type member struct {
		s, twin *Store
		m       *storeModel
	}
	fam := []*member{{NewStore(), NewStore(), &storeModel{}}}
	for step, op := range ops {
		x := fam[op.on%len(fam)]
		both := func(mutate func(s *Store)) { mutate(x.s); mutate(x.twin) }
		nn, ne := len(x.m.nodes), len(x.m.edges)
		node := func(i int) NodeID { return NodeID(i % nn) }
		switch {
		case op.kind == "AddNode":
			var labels []string
			for i := 0; i < op.a%3; i++ {
				labels = append(labels, opLabels[(op.b+i)%len(opLabels)])
			}
			props := map[string]Value{}
			for i := 0; i < op.c%8; i++ { // up to seven: more than a small record
				props[opKeys[(op.a+i)%len(opKeys)]] = opValues[(op.b+i)%len(opValues)]
			}
			both(func(s *Store) { s.AddNode(labels, deepProps(props)) })
			sort.Strings(labels)
			dedup := labels[:0]
			for i, l := range labels {
				if i == 0 || l != labels[i-1] {
					dedup = append(dedup, l)
				}
			}
			x.m.nodes = append(x.m.nodes, nodeModel{labels: dedup, props: props})
		case op.kind == "Clone" && len(fam) < 5:
			fam = append(fam, &member{x.s.Clone(), x.twin.Clone(), x.m.clone()})
		case nn == 0:
		case op.kind == "AddLabel":
			both(func(s *Store) { s.AddLabel(node(op.a), op.label) })
			if op.label != "" {
				x.m.addLabel(node(op.a), op.label)
			}
		case op.kind == "SetProp":
			both(func(s *Store) { s.SetProp(node(op.a), op.key, op.v) })
			x.m.nodes[node(op.a)].props[op.key] = op.v
		case op.kind == "AppendProp":
			both(func(s *Store) { s.AppendProp(node(op.a), op.key, op.v) })
			modelAppend(x.m.nodes[node(op.a)].props, op.key, op.v)
		case op.kind == "RemovePropValue":
			want := x.m.removeValue(node(op.a), op.key, op.v)
			both(func(s *Store) {
				if got := s.RemovePropValue(node(op.a), op.key, op.v); got != want {
					t.Fatalf("step %d: RemovePropValue = %v, want %v", step, got, want)
				}
			})
		case op.kind == "HasPropValue":
			arr, at := propValues(x.m.nodes[node(op.a)].props[op.key], op.v)
			if got := x.s.HasPropValue(node(op.a), op.key, op.v); got != (at < len(arr)) {
				t.Fatalf("step %d: HasPropValue = %v on %v", step, got, arr)
			}
		case op.kind == "AddEdge":
			both(func(s *Store) { s.AddEdge(node(op.a), node(op.b), op.label, nil) })
			x.m.edges = append(x.m.edges, edgeModel{from: node(op.a), to: node(op.b), label: op.label, props: map[string]Value{}})
		case op.kind == "AppendEdgeProp" && ne > 0:
			both(func(s *Store) { s.AppendEdgeProp(EdgeID(op.a%ne), op.key, op.v) })
			modelAppend(x.m.edges[op.a%ne].props, op.key, op.v)
		case op.kind == "Resequence":
			drop := map[NodeID]bool{}
			var dropNodes []NodeID
			var moves []NodeMove
			if op.a%3 > 0 {
				drop[node(op.b)] = true
				dropNodes = append(dropNodes, node(op.b))
			}
			if mv := node(op.c); op.a%2 == 0 && !drop[mv] {
				moves = append(moves, NodeMove{ID: mv, Before: NodeID(op.b % (nn + 1)), Relist: op.a%4 == 0})
			}
			var dropEdges []EdgeID
			for i, e := range x.m.edges {
				if drop[e.from] || drop[e.to] || (i+op.c)%7 == 0 {
					dropEdges = append(dropEdges, EdgeID(i))
				}
			}
			both(func(s *Store) { s.Resequence(dropNodes, moves, dropEdges) })
			x.m.resequence(dropNodes, moves, dropEdges)
		}
		for mi, f := range fam {
			f.m.agrees(t, fmt.Sprintf("step %d (%s on %d), member %d", step, op.kind, op.on%len(fam), mi), f.s, opLabels, opKeys)
		}
	}
	for mi, f := range fam {
		ctx := fmt.Sprintf("after step %d, the unread twin of member %d", len(ops)-1, mi)
		f.m.agrees(t, ctx, f.twin, opLabels, opKeys)
		sameIndexes(t, ctx, f.twin, f.s)
	}
}

// sameIndexes checks that got's adjacency and iri index answer as want's.
func sameIndexes(t testing.TB, ctx string, got, want *Store) {
	t.Helper()
	for i := range want.NumNodes() {
		if g, w := indexAnswer(got, NodeID(i)), indexAnswer(want, NodeID(i)); g != w {
			t.Fatalf("%s: node %d: %s, want %s", ctx, i, g, w)
		}
	}
}

// iriNode adds a node whose one property is an iri, opValues[v].
func iriNode(v int) storeOp { return storeOp{kind: "AddNode", a: 0, b: v, c: 1} }

// TestStoreOpsCorners runs the scripts that must exist by name.
func TestStoreOpsCorners(t *testing.T) {
	sixProps := storeOp{kind: "AddNode", a: 0, b: 0, c: 7}
	for _, c := range []struct {
		name string
		ops  []storeOp
	}{
		{"a node with no label and no property", []storeOp{
			{kind: "AddNode"}, {kind: "AddNode"}, {kind: "AddEdge", a: 0, b: 1, label: "knows"},
		}},
		{"six or more properties", []storeOp{
			sixProps, {kind: "SetProp", key: "age", v: int64(1)}, {kind: "AppendProp", key: "age", v: int64(2)},
			{kind: "RemovePropValue", key: "beta", v: opValues[5]}, {kind: "AppendProp", key: "aaa", v: "first"},
		}},
		{"a label set grown to three by AddLabel", []storeOp{
			{kind: "AddNode"}, {kind: "AddLabel", label: "Student"}, {kind: "AddLabel", label: "Course"},
			{kind: "AddLabel", label: "Person"}, {kind: "AddLabel", label: "Student"}, {kind: "AddLabel", label: ""},
			{kind: "AddNode", a: 2, b: 0}, // Person, Student: reached the other way round
			{kind: "AddLabel", a: 1, label: "Course"},
		}},
		{"array, then scalar, then the key gone", []storeOp{
			{kind: "AddNode", a: 1}, {kind: "AppendProp", key: "alias", v: "x"}, {kind: "AppendProp", key: "alias", v: "y"},
			{kind: "AppendProp", key: "alias", v: "z"}, {kind: "Clone"},
			{kind: "RemovePropValue", key: "alias", v: "y"}, {kind: "RemovePropValue", key: "alias", v: "x"},
			{kind: "HasPropValue", key: "alias", v: "z"}, {kind: "RemovePropValue", key: "alias", v: "nope"},
			{kind: "RemovePropValue", key: "alias", v: "z"}, {kind: "RemovePropValue", key: "alias", v: "z"},
			{kind: "RemovePropValue", key: "never", v: "z"},
		}},
		{"SetProp over an existing key after Clone", []storeOp{
			sixProps, {kind: "Clone"}, {kind: "SetProp", key: "name", v: "new"}, {kind: "SetProp", on: 1, key: "name", v: "other"},
			{kind: "SetProp", key: "name", v: "newer"}, {kind: "Clone"}, {kind: "SetProp", key: "name", v: "newest"},
		}},
		{"AppendEdgeProp after Clone", []storeOp{
			{kind: "AddNode"}, {kind: "AddEdge", label: "knows"}, {kind: "AppendEdgeProp", key: "since", v: int64(2020)},
			{kind: "Clone"}, {kind: "AppendEdgeProp", key: "since", v: int64(2021)}, {kind: "AppendEdgeProp", on: 1, key: "since", v: int64(1999)},
			{kind: "AppendEdgeProp", key: "since", v: int64(2022)}, {kind: "AppendEdgeProp", key: "note", v: "n"},
		}},
		{"an iri rewritten", []storeOp{
			{kind: "AddNode", a: 1, b: 0, c: 1}, {kind: "AddNode"}, {kind: "SetProp", a: 1, key: "iri", v: "http://ex.org/n2"},
			{kind: "SetProp", a: 0, key: "iri", v: "http://ex.org/n9"}, {kind: "Clone"},
			{kind: "SetProp", a: 1, key: "iri", v: "http://ex.org/n1"}, {kind: "Resequence", a: 1, b: 0},
		}},
		{"Resequence of a store whose index was never read", []storeOp{
			// Three nodes share iri n1, and node 0 takes n2, which node 1
			// holds; the first Resequence moves the last n1 node to the
			// front, the second drops the node without an iri.
			iriNode(7), iriNode(8), iriNode(7), {kind: "AddNode"}, iriNode(7),
			{kind: "SetProp", a: 0, key: "iri", v: opValues[8]},
			{kind: "AddEdge", a: 0, b: 1, label: "knows"}, {kind: "AddEdge", a: 2, b: 3, label: "knows"},
			{kind: "AddEdge", a: 1, b: 2, label: "likes"}, {kind: "AddEdge", a: 4, b: 0, label: "knows"},
			{kind: "Resequence", a: 6, b: 0, c: 4}, {kind: "AddEdge", a: 3, b: 0, label: "likes"},
			{kind: "Resequence", a: 1, b: 4, c: 1}, iriNode(8),
		}},
		{"Clone of an unread store, both sides written before the first read", []storeOp{
			iriNode(7), iriNode(8), {kind: "AddNode", a: 1}, {kind: "AddEdge", a: 0, b: 1, label: "knows"},
			{kind: "AddEdge", a: 1, b: 2, label: "knows"}, {kind: "Clone"},
			{kind: "AddEdge", a: 0, b: 2, label: "likes"}, {kind: "AddEdge", on: 1, a: 2, b: 0, label: "knows"},
			iriNode(7), {kind: "AddNode", on: 1, a: 0, b: 8, c: 1}, {kind: "AddEdge", on: 1, a: 3, b: 1, label: "likes"},
			{kind: "SetProp", on: 1, a: 2, key: "iri", v: "http://ex.org/n1"}, {kind: "AddEdge", a: 1, b: 3, label: "knows"},
		}},
		{"records shifted by Resequence are written after it", []storeOp{
			sixProps, {kind: "AddNode", a: 1}, {kind: "AddNode", a: 2}, {kind: "AddEdge", a: 1, b: 2, label: "knows"},
			{kind: "Clone"}, {kind: "Resequence", a: 1, b: 0}, {kind: "AppendProp", a: 0, key: "alias", v: "x"},
			{kind: "AppendEdgeProp", key: "since", v: int64(1)}, {kind: "AddLabel", a: 1, label: "Course"},
		}},
	} {
		t.Run(c.name, func(t *testing.T) { runStoreOps(t, c.ops) })
	}
}

// FuzzStoreOps is the model-based differential for the store: a seed drives
// a sequence of every mutator, Clone and Resequence over a family of stores.
func FuzzStoreOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, uint8(60))
	}
	kinds := []string{"AddNode", "AddNode", "AddLabel", "SetProp", "AppendProp", "AppendProp", "RemovePropValue",
		"HasPropValue", "AddEdge", "AddEdge", "AppendEdgeProp", "Clone", "Resequence"}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		rng := rand.New(rand.NewSource(seed))
		ops := []storeOp{{kind: "AddNode", a: 1, c: 1}}
		for i := 0; i < int(n)%96; i++ {
			op := storeOp{
				kind: kinds[rng.Intn(len(kinds))], on: rng.Intn(8),
				a: rng.Intn(64), b: rng.Intn(64), c: rng.Intn(64),
				key: opKeys[rng.Intn(len(opKeys))], label: opLabels[rng.Intn(len(opLabels))],
				v: opValues[rng.Intn(len(opValues))],
			}
			if op.kind == "AppendProp" && op.key == "iri" {
				op.kind = "SetProp" // only SetProp and AddNode register an iri
			}
			ops = append(ops, op)
		}
		runStoreOps(t, ops)
	})
}
