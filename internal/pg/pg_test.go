package pg

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddNodeLabelsDedupSorted(t *testing.T) {
	s := NewStore()
	n := s.AddNode([]string{"Student", "Person", "Student", ""}, nil)
	if l := n.Labels(); len(l) != 2 || l[0] != "Person" || l[1] != "Student" {
		t.Fatalf("labels = %v", l)
	}
	if !n.HasLabel("Person") || n.HasLabel("Robot") {
		t.Fatal("HasLabel wrong")
	}
	if got := s.NodesByLabel("Person"); len(got) != 1 || got[0] != n.ID {
		t.Fatalf("NodesByLabel = %v", got)
	}
}

func TestIRIIndex(t *testing.T) {
	s := NewStore()
	a := s.AddNode([]string{"A"}, map[string]Value{"iri": "http://x/a"})
	if got, ok := s.NodeByIRI("http://x/a"); !ok || got.ID != a.ID {
		t.Fatal("NodeByIRI missed")
	}
	s.SetProp(a.ID, "iri", "http://x/a") // the same node again shares nothing
	if !s.IRIUnique() || !s.Clone().IRIUnique() {
		t.Fatal("one node per iri, yet not IRIUnique")
	}
	// First writer wins on duplicate IRIs, and the store remembers it.
	s.AddNode([]string{"B"}, map[string]Value{"iri": "http://x/a"})
	if got, ok := s.NodeByIRI("http://x/a"); !ok || got.ID != a.ID {
		t.Fatal("duplicate IRI displaced original")
	}
	if s.IRIUnique() || s.Clone().IRIUnique() {
		t.Fatal("two nodes under one iri, yet IRIUnique")
	}
	if _, ok := s.NodeByIRI("http://x/none"); ok {
		t.Fatal("missing IRI should be nil")
	}
	// SetProp registers too.
	c := s.AddNode([]string{"C"}, nil)
	s.SetProp(c.ID, "iri", "http://x/c")
	if got, ok := s.NodeByIRI("http://x/c"); !ok || got.ID != c.ID {
		t.Fatal("SetProp did not index IRI")
	}
}

func TestEdgesAndAdjacency(t *testing.T) {
	s := NewStore()
	a := s.AddNode([]string{"A"}, nil)
	b := s.AddNode([]string{"B"}, nil)
	e := s.AddEdge(a.ID, b.ID, "knows", map[string]Value{"since": int64(2020)})
	if e.From != a.ID || e.To != b.ID || e.Label() != "knows" {
		t.Fatalf("edge = %+v", e)
	}
	if got := s.Out(a.ID); len(got) != 1 || got[0] != e.ID {
		t.Fatalf("Out = %v", got)
	}
	if got := s.In(b.ID); len(got) != 1 || got[0] != e.ID {
		t.Fatalf("In = %v", got)
	}
	if got := s.EdgeLabels(); len(got) != 1 || got[0] != "knows" {
		t.Fatalf("EdgeLabels = %v", got)
	}
	if s.RelTypes() != 1 {
		t.Fatalf("RelTypes = %d", s.RelTypes())
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewStore()
	s.AddEdge(0, 1, "x", nil)
}

// TestFrozenKeepsRecord: a Frozen handle reads the record as it was, whatever
// the store writes to the node after, on a page of its own and on one a clone
// shares.
func TestFrozenKeepsRecord(t *testing.T) {
	for _, cloned := range []bool{false, true} {
		s := NewStore()
		id := s.AddNode([]string{"A"}, map[string]Value{"k": int64(1), "m": "x"}).ID
		s.AppendProp(id, "k", int64(2)) // the record is the store's own now
		if cloned {
			_ = s.Clone()
		}
		frozen, want := s.Frozen(id), "k=[1,2];m=x"
		s.AppendProp(id, "k", int64(3))
		s.SetProp(id, "a", "new")
		s.RemovePropValue(id, "m", "x")
		if got := propsOf(frozen); got != want {
			t.Fatalf("cloned=%v: frozen handle reads %s, want %s", cloned, got, want)
		}
		if got := propsOf(s.Node(id)); got != "a=new;k=[1,2,3]" {
			t.Fatalf("cloned=%v: the node reads %s after the writes", cloned, got)
		}
	}
}

// propsOf renders a record as key=value pairs in key order.
func propsOf(n Node) string {
	var b strings.Builder
	for i := 0; i < n.NumProps(); i++ {
		k, v := n.PropAt(i)
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s=%s", k, strings.ReplaceAll(fmt.Sprint(v), " ", ","))
	}
	return b.String()
}

func TestAddLabel(t *testing.T) {
	s := NewStore()
	n := s.AddNode([]string{"B"}, nil)
	s.AddLabel(n.ID, "A")
	s.AddLabel(n.ID, "A") // idempotent
	if l := s.Node(n.ID).Labels(); len(l) != 2 || l[0] != "A" {
		t.Fatalf("labels = %v", l)
	}
	if got := s.NodesByLabel("A"); len(got) != 1 {
		t.Fatalf("NodesByLabel(A) = %v", got)
	}
}

func TestAppendProp(t *testing.T) {
	s := NewStore()
	n := s.AddNode(nil, nil)
	s.AppendProp(n.ID, "k", "a")
	if got := s.Node(n.ID).Prop("k"); got != "a" {
		t.Fatalf("scalar = %v", got)
	}
	s.AppendProp(n.ID, "k", "b")
	arr, ok := s.Node(n.ID).Prop("k").([]Value)
	if !ok || len(arr) != 2 || arr[0] != "a" || arr[1] != "b" {
		t.Fatalf("after second append = %v", s.Node(n.ID).Prop("k"))
	}
	s.AppendProp(n.ID, "k", "c")
	arr = s.Node(n.ID).Prop("k").([]Value)
	if len(arr) != 3 || arr[2] != "c" {
		t.Fatalf("after third append = %v", arr)
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{"x", "x", true},
		{"x", "y", false},
		{int64(3), int64(3), true},
		{int64(3), float64(3), true}, // numeric promotion
		{float64(3.5), int64(3), false},
		{true, true, true},
		{true, false, false},
		{[]Value{"a", int64(1)}, []Value{"a", int64(1)}, true},
		{[]Value{"a"}, []Value{"a", "b"}, false},
		{[]Value{"a"}, "a", false},
	}
	for _, c := range cases {
		if got := ValueEqual(c.a, c.b); got != c.want {
			t.Errorf("ValueEqual(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{"s", "s"},
		{int64(42), "42"},
		{float64(2.5), "2.5"},
		{true, "true"},
		{nil, "null"},
		{[]Value{"a", int64(1)}, "[a, 1]"},
	}
	for _, c := range cases {
		if got := FormatValue(c.v); got != c.want {
			t.Errorf("FormatValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func buildSampleStore() *Store {
	s := NewStore()
	a := s.AddNode([]string{"Person", "Student"}, map[string]Value{
		"iri": "http://x/bob", "regNo": "Bs12", "scores": []Value{int64(1), int64(2)},
	})
	b := s.AddNode([]string{"Person", "Professor"}, map[string]Value{
		"iri": "http://x/alice", "tenure": true, "h": float64(41.5),
	})
	c := s.AddNode([]string{"STRING"}, map[string]Value{"value": "Intro, to \"Logic\""})
	s.AddEdge(a.ID, b.ID, "advisedBy", map[string]Value{"iri": "http://x/advisedBy"})
	s.AddEdge(a.ID, c.ID, "takesCourse", nil)
	return s
}

func TestCSVRoundTrip(t *testing.T) {
	s := buildSampleStore()
	var nodes, edges bytes.Buffer
	if err := s.WriteCSV(&nodes, &edges); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(&nodes, &edges)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(back) {
		t.Fatalf("csv round trip mismatch\nnodes:\n%s\nedges:\n%s", nodes.String(), edges.String())
	}
	// Indexes must be rebuilt.
	if _, ok := back.NodeByIRI("http://x/bob"); !ok {
		t.Fatal("IRI index not rebuilt after load")
	}
	if got := back.NodesByLabel("Person"); len(got) != 2 {
		t.Fatalf("label index not rebuilt: %v", got)
	}
}

func TestStoreEqualDetectsDifferences(t *testing.T) {
	a := buildSampleStore()
	b := buildSampleStore()
	if !a.Equal(b) {
		t.Fatal("identical stores not equal")
	}
	b.SetProp(0, "regNo", "ZZ")
	if a.Equal(b) {
		t.Fatal("prop change not detected")
	}
	c := buildSampleStore()
	c.AddNode([]string{"X"}, nil)
	if a.Equal(c) {
		t.Fatal("size change not detected")
	}
}

// Property: any randomly generated store survives the CSV round trip.
func TestQuickCSVRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		nNodes := rng.Intn(20) + 1
		for i := 0; i < nNodes; i++ {
			props := map[string]Value{}
			for j := 0; j < rng.Intn(4); j++ {
				key := fmt.Sprintf("p%d", j)
				switch rng.Intn(5) {
				case 0:
					props[key] = fmt.Sprintf("v,\"%d\"\n", rng.Intn(100))
				case 1:
					props[key] = int64(rng.Intn(1000) - 500)
				case 2:
					props[key] = rng.Float64() * 100
				case 3:
					props[key] = rng.Intn(2) == 0
				default:
					props[key] = []Value{int64(1), int64(2), int64(3)}
				}
			}
			labels := []string{fmt.Sprintf("L%d", rng.Intn(4))}
			s.AddNode(labels, props)
		}
		for i := 0; i < rng.Intn(30); i++ {
			from := NodeID(rng.Intn(nNodes))
			to := NodeID(rng.Intn(nNodes))
			s.AddEdge(from, to, fmt.Sprintf("r%d", rng.Intn(3)), map[string]Value{"w": int64(i)})
		}
		var nodes, edges bytes.Buffer
		if err := s.WriteCSV(&nodes, &edges); err != nil {
			return false
		}
		back, err := LoadCSV(&nodes, &edges)
		if err != nil {
			return false
		}
		return s.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
