package rdf

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func ex(local string) Term { return NewIRI("http://example.org/" + local) }

func TestLocalName(t *testing.T) {
	cases := map[string]string{
		"http://example.org/univ#Person": "Person",
		"http://example.org/univ/Person": "Person",
		"urn:isbn:123":                   "urn:isbn:123",
		"http://x/#":                     "http://x/#",
	}
	for in, want := range cases {
		if got := LocalName(in); got != want {
			t.Errorf("LocalName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTermConstructors(t *testing.T) {
	iri := NewIRI("http://example.org/a")
	if !iri.IsIRI() || iri.IsLiteral() || iri.IsBlank() {
		t.Fatalf("IRI kind flags wrong: %+v", iri)
	}
	b := NewBlank("b0")
	if !b.IsBlank() || !b.IsResource() {
		t.Fatalf("blank kind flags wrong: %+v", b)
	}
	l := NewLiteral("hi")
	if !l.IsLiteral() || l.IsResource() {
		t.Fatalf("literal kind flags wrong: %+v", l)
	}
	if l.DatatypeIRI() != XSDString {
		t.Fatalf("plain literal datatype = %q, want xsd:string", l.DatatypeIRI())
	}
}

func TestTypedLiteralNormalizesXSDString(t *testing.T) {
	a := NewLiteral("x")
	b := NewTypedLiteral("x", XSDString)
	if a != b {
		t.Fatalf("plain and xsd:string literals should be equal: %+v vs %+v", a, b)
	}
}

func TestLangLiteral(t *testing.T) {
	l := NewLangLiteral("Bonjour", "FR")
	if l.Lang != "fr" {
		t.Fatalf("lang not lowercased: %q", l.Lang)
	}
	if l.DatatypeIRI() != RDFLangString {
		t.Fatalf("lang literal datatype = %q", l.DatatypeIRI())
	}
	if got, want := l.String(), `"Bonjour"@fr`; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://x/y"), "<http://x/y>"},
		{NewBlank("n1"), "_:n1"},
		{NewLiteral("a\"b"), `"a\"b"`},
		{NewTypedLiteral("5", XSDInteger), `"5"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{NewLiteral("line\nbreak"), `"line\nbreak"`},
		{NewLiteral(`back\slash`), `"back\\slash"`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestTripleValid(t *testing.T) {
	good := NewTriple(ex("s"), ex("p"), NewLiteral("o"))
	if !good.Valid() {
		t.Fatal("expected valid triple")
	}
	bad := NewTriple(NewLiteral("s"), ex("p"), ex("o"))
	if bad.Valid() {
		t.Fatal("literal subject must be invalid")
	}
	bad2 := NewTriple(ex("s"), NewBlank("p"), ex("o"))
	if bad2.Valid() {
		t.Fatal("blank predicate must be invalid")
	}
}

func TestGraphAddHasRemove(t *testing.T) {
	g := NewGraph()
	tr := NewTriple(ex("s"), ex("p"), ex("o"))
	if !g.Add(tr) {
		t.Fatal("first Add returned false")
	}
	if g.Add(tr) {
		t.Fatal("duplicate Add returned true")
	}
	if g.Len() != 1 || !g.Has(tr) {
		t.Fatalf("Len=%d Has=%v", g.Len(), g.Has(tr))
	}
	if !g.Remove(tr) {
		t.Fatal("Remove returned false")
	}
	if g.Len() != 0 || g.Has(tr) {
		t.Fatalf("after remove Len=%d Has=%v", g.Len(), g.Has(tr))
	}
	if g.Remove(tr) {
		t.Fatal("second Remove returned true")
	}
	// Re-adding after removal must work.
	if !g.Add(tr) {
		t.Fatal("re-Add after Remove returned false")
	}
	if g.Len() != 1 {
		t.Fatalf("Len after re-add = %d", g.Len())
	}
}

func TestGraphAddInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid triple")
		}
	}()
	NewGraph().Add(Triple{})
}

func buildSampleGraph() *Graph {
	g := NewGraph()
	g.Add(NewTriple(ex("bob"), A, ex("Student")))
	g.Add(NewTriple(ex("bob"), A, ex("Person")))
	g.Add(NewTriple(ex("alice"), A, ex("Professor")))
	g.Add(NewTriple(ex("bob"), ex("advisedBy"), ex("alice")))
	g.Add(NewTriple(ex("bob"), ex("regNo"), NewLiteral("Bs12")))
	g.Add(NewTriple(ex("alice"), ex("name"), NewLiteral("Alice")))
	g.Add(NewTriple(ex("Student"), NewIRI(RDFSSubClassOf), ex("Person")))
	return g
}

func TestGraphMatchPatterns(t *testing.T) {
	g := buildSampleGraph()
	s, p, o := ex("bob"), ex("advisedBy"), ex("alice")

	count := func(sp, pp, op *Term) int { return g.MatchCount(sp, pp, op) }

	if got := count(&s, nil, nil); got != 4 {
		t.Errorf("(s,?,?) = %d, want 4", got)
	}
	if got := count(nil, &p, nil); got != 1 {
		t.Errorf("(?,p,?) = %d, want 1", got)
	}
	if got := count(nil, nil, &o); got != 1 {
		t.Errorf("(?,?,o) = %d, want 1", got)
	}
	if got := count(&s, &p, &o); got != 1 {
		t.Errorf("(s,p,o) = %d, want 1", got)
	}
	if got := count(nil, nil, nil); got != g.Len() {
		t.Errorf("(?,?,?) = %d, want %d", got, g.Len())
	}
	missing := ex("nobody")
	if got := count(&missing, nil, nil); got != 0 {
		t.Errorf("missing subject matched %d triples", got)
	}
}

func TestGraphMatchEarlyStop(t *testing.T) {
	g := buildSampleGraph()
	n := 0
	g.Match(nil, nil, nil, func(Triple) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("early stop visited %d triples, want 2", n)
	}
}

func TestGraphMatchSkipsRemoved(t *testing.T) {
	g := buildSampleGraph()
	tr := NewTriple(ex("bob"), ex("regNo"), NewLiteral("Bs12"))
	g.Remove(tr)
	s := ex("bob")
	g.Match(&s, nil, nil, func(got Triple) bool {
		if got == tr {
			t.Fatalf("matched removed triple %v", got)
		}
		return true
	})
}

func TestObjectsSubjectsHelpers(t *testing.T) {
	g := buildSampleGraph()
	objs := g.Objects(ex("bob"), A)
	if len(objs) != 2 {
		t.Fatalf("Objects = %v", objs)
	}
	subs := g.Subjects(A, ex("Student"))
	if len(subs) != 1 || subs[0] != ex("bob") {
		t.Fatalf("Subjects = %v", subs)
	}
	if got := g.TypesOf(ex("alice")); len(got) != 1 || got[0] != ex("Professor") {
		t.Fatalf("TypesOf = %v", got)
	}
	if got := g.InstancesOf(ex("Professor")); len(got) != 1 || got[0] != ex("alice") {
		t.Fatalf("InstancesOf = %v", got)
	}
}

func TestClassesAndPredicates(t *testing.T) {
	g := buildSampleGraph()
	classes := g.Classes()
	want := map[Term]bool{ex("Student"): true, ex("Person"): true, ex("Professor"): true}
	if len(classes) != len(want) {
		t.Fatalf("Classes = %v", classes)
	}
	for _, c := range classes {
		if !want[c] {
			t.Fatalf("unexpected class %v", c)
		}
	}
	preds := g.predicates()
	if len(preds) != 5 { // type, advisedBy, regNo, name, subClassOf
		t.Fatalf("Predicates = %v", preds)
	}
}

func TestSuperClassesAndIsInstanceOf(t *testing.T) {
	g := buildSampleGraph()
	g.Add(NewTriple(ex("Person"), NewIRI(RDFSSubClassOf), ex("Agent")))
	sups := g.SuperClasses(ex("Student"))
	if len(sups) != 2 {
		t.Fatalf("SuperClasses = %v", sups)
	}
	if !g.IsInstanceOf(ex("bob"), ex("Agent")) {
		t.Fatal("bob should be an Agent via Student ⊑ Person ⊑ Agent")
	}
	if g.IsInstanceOf(ex("alice"), ex("Agent")) {
		t.Fatal("alice has no subclass path to Agent")
	}
}

func TestSuperClassesCycleSafe(t *testing.T) {
	g := NewGraph()
	sub := NewIRI(RDFSSubClassOf)
	g.Add(NewTriple(ex("A"), sub, ex("B")))
	g.Add(NewTriple(ex("B"), sub, ex("A")))
	sups := g.SuperClasses(ex("A"))
	if len(sups) != 1 || sups[0] != ex("B") {
		t.Fatalf("cyclic SuperClasses = %v", sups)
	}
}

func TestGraphEqualAndClone(t *testing.T) {
	g := buildSampleGraph()
	c := g.Clone()
	if !g.Equal(c) || !c.Equal(g) {
		t.Fatal("clone not equal to original")
	}
	c.Add(NewTriple(ex("x"), ex("p"), ex("y")))
	if g.Equal(c) {
		t.Fatal("graphs with different sizes reported equal")
	}
	d := g.Clone()
	d.Remove(NewTriple(ex("bob"), A, ex("Person")))
	d.Add(NewTriple(ex("bob"), A, ex("Robot")))
	if g.Equal(d) {
		t.Fatal("graphs with same size, different triples reported equal")
	}
}

func TestAddAll(t *testing.T) {
	g := buildSampleGraph()
	h := NewGraph()
	h.Add(NewTriple(ex("bob"), A, ex("Student"))) // overlap
	h.Add(NewTriple(ex("new"), ex("p"), NewLiteral("v")))
	added := g.AddAll(h)
	if added != 1 {
		t.Fatalf("AddAll added %d, want 1", added)
	}
}

func TestDictInternStable(t *testing.T) {
	d := NewDict()
	a := d.Intern(ex("a"))
	b := d.Intern(ex("b"))
	if a == b {
		t.Fatal("distinct terms share an id")
	}
	if d.Intern(ex("a")) != a {
		t.Fatal("re-intern changed id")
	}
	if d.Term(a) != ex("a") {
		t.Fatal("Term(id) mismatch")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
}

// Property: for any random batch of triples, the graph contains exactly the
// distinct ones, Match(nil,nil,nil) enumerates them all, and removal of a
// subset leaves exactly the complement.
func TestQuickGraphSetSemantics(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		want := make(map[Triple]bool)
		var all []Triple
		for i := 0; i < int(n)+1; i++ {
			tr := NewTriple(
				ex(fmt.Sprintf("s%d", rng.Intn(8))),
				ex(fmt.Sprintf("p%d", rng.Intn(4))),
				NewLiteral(fmt.Sprintf("v%d", rng.Intn(8))),
			)
			g.Add(tr)
			if !want[tr] {
				want[tr] = true
				all = append(all, tr)
			}
		}
		if g.Len() != len(want) {
			return false
		}
		// Remove a random half.
		for _, tr := range all {
			if rng.Intn(2) == 0 {
				g.Remove(tr)
				delete(want, tr)
			}
		}
		if g.Len() != len(want) {
			return false
		}
		got := make(map[Triple]bool)
		g.ForEach(func(tr Triple) bool { got[tr] = true; return true })
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEscapeLiteral(t *testing.T) {
	cases := map[string]string{
		"plain":     "plain",
		"a\"b":      `a\"b`,
		"a\\b":      `a\\b`,
		"a\nb":      `a\nb`,
		"a\rb":      `a\rb`,
		"a\tb":      `a\tb`,
		"ünïcødé ✓": "ünïcødé ✓",
	}
	for in, want := range cases {
		if got := EscapeLiteral(in); got != want {
			t.Errorf("EscapeLiteral(%q) = %q, want %q", in, got, want)
		}
	}
}

// predicates returns all distinct predicate IRIs, sorted (a test oracle).
func (g *Graph) predicates() []Term {
	seen := make(map[TermID]struct{})
	g.forEachSlot(0, func(_ int, e encTriple) bool {
		seen[e.p] = struct{}{}
		return true
	})
	out := make([]Term, 0, len(seen))
	for id := range seen {
		out = append(out, g.dict.Term(id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}
