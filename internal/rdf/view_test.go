package rdf

import (
	"fmt"
	"strings"
	"testing"
)

// viewTerm is term i of the view tests' universe: every kind, typed and
// language-tagged literals, the empty value and values too long to share a
// chunk.
func viewTerm(i int) Term {
	switch i % 7 {
	case 0:
		return NewTypedLiteral(fmt.Sprint(i), XSDInteger)
	case 1:
		return NewLangLiteral(fmt.Sprintf("tagged %d", i), fmt.Sprintf("x-%d", i%3))
	case 2:
		return NewLiteral(strings.Repeat("v", i%3*bigValue/2) + fmt.Sprint(i))
	case 3:
		return NewBlank(fmt.Sprint("b", i))
	case 4:
		if i%2 == 0 {
			return NewLiteral("")
		}
		q, err := NewTripleTerm(NewTriple(NewIRI("http://example.org/q"), NewIRI("http://example.org/p"), NewLiteral(fmt.Sprint(i))))
		if err != nil {
			panic(err)
		}
		return q
	default:
		return NewIRI(fmt.Sprintf("http://example.org/%d", i))
	}
}

// addViewTerms adds triples whose objects are terms [from, to) of the
// universe.
func addViewTerms(g *Graph, from, to int) {
	for i := from; i < to; i++ {
		g.Add(NewTriple(NewIRI(fmt.Sprintf("http://example.org/s%d", i%11)), NewIRI("http://example.org/p"), viewTerm(i)))
	}
}

// decodeAll returns every term of d through Term, as private copies.
func decodeAll(d *Dict) []Term {
	out := make([]Term, d.Len())
	for id := range out {
		tm := d.Term(TermID(id))
		out[id] = Term{Kind: tm.Kind, Value: strings.Clone(tm.Value), Datatype: strings.Clone(tm.Datatype), Lang: strings.Clone(tm.Lang)}
	}
	return out
}

// requireViews holds View, DatatypeIRI and ValueBytes of every id of d to
// want, the terms those ids decoded to.
func requireViews(t *testing.T, what string, d *Dict, want []Term) {
	t.Helper()
	if d.Len() != len(want) {
		t.Fatalf("%s: %d terms, want %d", what, d.Len(), len(want))
	}
	var n int64
	for id, w := range want {
		kind, value := d.View(TermID(id))
		if dt := d.DatatypeIRI(TermID(id)); kind != w.Kind || value != w.Value || dt != w.DatatypeIRI() {
			t.Fatalf("%s: term %d views as %v %q ^^%q, want %v", what, id, kind, value, dt, w)
		}
		n += int64(len(w.Value))
	}
	if got := d.ValueBytes(); got != n {
		t.Fatalf("%s: ValueBytes = %d, want %d", what, got, n)
	}
}

// TestViewAfterSpill is TestCloneContract's byte check for the query path's
// view: a graph interns terms of every kind, spills, is cloned, and both
// sides intern more before the original spills again. At every step View,
// DatatypeIRI and ValueBytes read what the ids decoded to before — resident
// ids, spilled ones, and the ones interned between the spills.
func TestViewAfterSpill(t *testing.T) {
	g := NewGraph()
	addViewTerms(g, 0, 300)
	want := decodeAll(g.Dict())
	requireViews(t, "resident", g.Dict(), want)

	if err := g.Spill(t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	requireViews(t, "spilled", g.Dict(), want)

	c := g.Clone()
	addViewTerms(g, 300, 400)
	addViewTerms(c, 400, 450)
	wantG, wantC := decodeAll(g.Dict()), decodeAll(c.Dict())
	for id := range want {
		if wantG[id] != want[id] || wantC[id] != want[id] {
			t.Fatalf("spilled term %d decodes as %v and %v after the clone, want %v", id, wantG[id], wantC[id], want[id])
		}
	}
	requireViews(t, "spilled original with a tail", g.Dict(), wantG)
	requireViews(t, "clone with a tail", c.Dict(), wantC)

	if err := g.Spill(t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	requireViews(t, "original spilled twice", g.Dict(), wantG)
	requireViews(t, "clone after the original's second spill", c.Dict(), wantC)
}

// TestViewAllocatesNothing: viewing a resident term, and reading its
// datatype, allocates nothing.
func TestViewAllocatesNothing(t *testing.T) {
	g := NewGraph()
	addViewTerms(g, 0, 100)
	d := g.Dict()
	allocs := testing.AllocsPerRun(10, func() {
		for id := TermID(0); int(id) < d.Len(); id++ {
			d.View(id)
			d.DatatypeIRI(id)
		}
	})
	if allocs != 0 {
		t.Fatalf("viewing %d resident terms allocates %.1f times", d.Len(), allocs)
	}
}
