package rdf

import (
	"fmt"
	"testing"
)

// TestDictInternAgainstModel interns a long stream with many repeats through
// every resize of the index and holds ids, Lookup and Term against a map.
// Intern returns the id for the term, assigning a fresh one if necessary:
// the dictionary's one-term entry point, which only tests call (the graph
// interns through its own paths).
func (d *Dict) Intern(t Term) TermID { return intern(d, keyOf(&t)) }

func TestDictInternAgainstModel(t *testing.T) {
	d := NewDict()
	model := make(map[Term]TermID)
	for i, tm := range genTerms(50000) {
		want, seen := model[tm]
		if !seen {
			want = TermID(len(model))
			if _, ok := d.Lookup(tm); ok {
				t.Fatalf("term %d %v: Lookup finds a term never interned", i, tm)
			}
			model[tm] = want
		}
		if got := d.Intern(tm); got != want {
			t.Fatalf("term %d %v: Intern = %d, want %d", i, tm, got, want)
		}
	}
	if d.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(model))
	}
	for tm, id := range model {
		if got, ok := d.Lookup(tm); !ok || got != id || d.Term(id) != tm {
			t.Fatalf("%v: Lookup = %d,%v and Term(%d) = %v", tm, got, ok, id, d.Term(id))
		}
	}
	if d.idx.base != nil || 2*d.idx.over.n > len(d.idx.over.slots) {
		t.Fatalf("index of a never-cloned dictionary: base %v, %d terms in %d slots (want at most half full)",
			d.idx.base, d.idx.over.n, len(d.idx.over.slots))
	}
}

// TestDictDistinguishesEveryField: terms that differ in one identity field
// only are different terms.
func TestDictDistinguishesEveryField(t *testing.T) {
	terms := []Term{
		NewIRI("x"), NewBlank("x"), NewLiteral("x"),
		NewTypedLiteral("x", XSDInteger), NewTypedLiteral("x", XSDDecimal),
		NewLangLiteral("x", "en"), NewLangLiteral("x", "de"),
	}
	d := NewDict()
	for i, tm := range terms {
		if id := d.Intern(tm); id != TermID(i) {
			t.Fatalf("%v got id %d, want a fresh id %d", tm, id, i)
		}
	}
	for i, tm := range terms {
		if id := d.Intern(tm); id != TermID(i) {
			t.Fatalf("%v re-interned as %d, want %d", tm, id, i)
		}
	}
}

// TestDictCloneSharesIndex: a clone shares the index as an immutable base;
// what either side interns afterwards lands in its own overlay, invisible to
// the other — the two may even hand the same id to different terms — and
// once an overlay outgrows 1/indexFoldDen of the base the next clone folds it.
func TestDictCloneSharesIndex(t *testing.T) {
	term := func(i int) Term { return NewIRI(fmt.Sprint("http://ex.org/", i)) }
	d := NewDict()
	for i := 0; i < 100; i++ {
		d.Intern(term(i))
	}
	c := d.clone()
	if d.idx.base == nil || c.idx.base != d.idx.base || d.idx.over.n != 0 || c.idx.over.n != 0 {
		t.Fatalf("after clone: bases %p / %p, overlays %d / %d", d.idx.base, c.idx.base, d.idx.over.n, c.idx.over.n)
	}
	for i := 0; i < 100; i++ {
		if a, b := d.Intern(term(i)), c.Intern(term(i)); a != TermID(i) || b != TermID(i) {
			t.Fatalf("%v: ids %d and %d after clone, want %d", term(i), a, b, i)
		}
	}
	x, y := NewIRI("http://ex.org/only-original"), NewIRI("http://ex.org/only-clone")
	if id := d.Intern(x); id != 100 {
		t.Fatalf("original's new term got id %d", id)
	}
	if _, ok := c.Lookup(x); ok {
		t.Fatal("the original's new term is visible in the clone")
	}
	if id := c.Intern(y); id != 100 {
		t.Fatalf("clone's new term got id %d", id)
	}
	if _, ok := d.Lookup(y); ok {
		t.Fatal("the clone's new term is visible in the original")
	}
	if d.Term(100) != x || c.Term(100) != y || d.Len() != 101 || c.Len() != 101 {
		t.Fatalf("Term(100): original %v, clone %v", d.Term(100), c.Term(100))
	}

	// A small overlay is copied: the second clone finds x, and its own
	// insertions stay out of d's overlay.
	base := d.idx.base
	c2 := d.clone()
	if d.idx.base != base || c2.idx.base != base || c2.idx.over.n != 1 {
		t.Fatalf("clone over a small overlay: base changed or overlay has %d entries", c2.idx.over.n)
	}
	if id, ok := c2.Lookup(x); !ok || id != 100 {
		t.Fatalf("second clone misses the overlay term: %d, %v", id, ok)
	}
	c2.Intern(y)
	if _, ok := d.Lookup(y); ok {
		t.Fatal("the second clone wrote into the original's overlay")
	}

	// An overlay past base/indexFoldDen is folded into a new shared base.
	folds0 := cIndexFolds.Value()
	for i := 100; i < 100+100/indexFoldDen+2; i++ {
		d.Intern(term(i))
	}
	c3 := d.clone()
	if cIndexFolds.Value() != folds0+1 || d.idx.base == base || c3.idx.base != d.idx.base || d.idx.over.n != 0 {
		t.Fatalf("clone over a large overlay did not fold: folds %d→%d, overlay %d",
			folds0, cIndexFolds.Value(), d.idx.over.n)
	}
	for id := 0; id < d.Len(); id++ {
		for _, dd := range []*Dict{d, c3} {
			if got, ok := dd.Lookup(d.Term(TermID(id))); !ok || got != TermID(id) {
				t.Fatalf("after the fold: Lookup(%v) = %d, %v; want %d", d.Term(TermID(id)), got, ok, id)
			}
		}
	}
	if id, ok := c.Lookup(y); !ok || id != 100 {
		t.Fatalf("the first clone lost its own term across the original's fold: %d, %v", id, ok)
	}
}

// TestDictGrow: reserving room changes no id and is enough room.
func TestDictGrow(t *testing.T) {
	d := NewDict()
	terms := genTerms(3000)
	for _, tm := range terms[:500] {
		d.Intern(tm)
	}
	want := make([]TermID, 500)
	for i, tm := range terms[:500] {
		want[i], _ = d.Lookup(tm)
	}
	d.grow(4000)
	slots, capTerms := len(d.idx.over.slots), cap(d.recs)
	for i, tm := range terms[:500] {
		if got, ok := d.Lookup(tm); !ok || got != want[i] {
			t.Fatalf("%v: id %d,%v after grow, want %d", tm, got, ok, want[i])
		}
	}
	for _, tm := range terms {
		d.Intern(tm)
	}
	if len(d.idx.over.slots) != slots || cap(d.recs) != capTerms {
		t.Fatalf("interning %d terms into room for 4000 more regrew: slots %d→%d, terms cap %d→%d",
			d.Len(), slots, len(d.idx.over.slots), capTerms, cap(d.recs))
	}
}

// TestDictEmptyValues: a term whose value is empty, met from a string or
// from bytes, reads back from a fresh graph, a clone of an empty one and a
// spilled one — dictionaries with no chunk for it to lie in.
func TestDictEmptyValues(t *testing.T) {
	spilled := NewGraph()
	spilled.Add(NewTriple(ex("s"), ex("p"), ex("o")))
	if err := spilled.Spill(t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	empty := []Term{NewLiteral(""), NewTypedLiteral("", XSDInteger), NewLangLiteral("", "en"), NewIRI("")}
	for _, c := range []struct {
		name string
		g    func() *Graph
	}{
		{"fresh", NewGraph},
		{"clone_of_empty", func() *Graph { return NewGraph().Clone() }},
		{"spilled", func() *Graph { return spilled.Clone() }},
	} {
		for _, bytesFirst := range []bool{false, true} {
			g := c.g()
			for _, tm := range empty {
				tr := NewTriple(NewIRI(""), NewIRI(""), tm)
				if bytesFirst {
					addScribbled(g, tr)
				} else {
					g.Add(tr)
				}
				if id, ok := g.Dict().Lookup(tm); !ok || g.Dict().Term(id) != tm {
					t.Fatalf("%s (bytes first %v): %v reads %d,%v as %v", c.name, bytesFirst, tm, id, ok, g.Dict().Term(id))
				}
			}
			if !g.Has(NewTriple(NewIRI(""), NewIRI(""), NewLiteral(""))) {
				t.Fatalf("%s (bytes first %v): the statement of empty terms is missing", c.name, bytesFirst)
			}
		}
	}
}

// TestAddReusesRecentIds: Add resolves repeated subjects and predicates
// without the dictionary, and must encode exactly what interning each term
// would — across predicates that share a slot of the recent table, graphs
// that share a dictionary, and a Spill.
func TestAddReusesRecentIds(t *testing.T) {
	d := NewDict()
	g, other := NewGraphWithDict(d), NewGraphWithDict(d)
	model := NewDict()
	encode := func(tr Triple) encTriple {
		return encTriple{model.Intern(tr.S), model.Intern(tr.P), model.Intern(tr.O)}
	}
	var want []encTriple
	// 40 predicates of equal length and last byte land in one slot.
	pred := func(i int) Term { return NewIRI(fmt.Sprintf("http://ex.org/p%02d/x", i)) }
	for round := 0; round < 3; round++ {
		for s := 0; s < 20; s++ {
			subj := NewIRI(fmt.Sprint("http://ex.org/s", s))
			for p := 0; p < 40; p++ {
				tr := NewTriple(subj, pred(p), NewLiteral(fmt.Sprint(round, s, p)))
				g.Add(tr)
				want = append(want, encode(tr))
				if p%7 == 0 {
					tr = NewTriple(NewBlank(fmt.Sprint("b", round, s, p)), pred(p+1), subj)
					other.Add(tr)
					encode(tr)
				}
			}
		}
		if round == 1 {
			if err := g.Spill(t.TempDir(), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if g.NumSlots() != len(want) {
		t.Fatalf("%d slots, want %d", g.NumSlots(), len(want))
	}
	for i, w := range want {
		if got := g.encAt(i); got != w {
			t.Fatalf("slot %d encoded %v, want %v", i, got, w)
		}
	}
}

// TestBothKeyFormsMapToOneID: a term admitted as a Term and met again as
// TermBytes — or the other way round — gets one id, on a resident graph and
// on one whose dictionary has spilled in between; the second form never
// adds a term. Re-admitting a spilled statement from bytes allocates nothing.
func TestBothKeyFormsMapToOneID(t *testing.T) {
	var terms []Term
	seen := map[Term]bool{}
	for _, tm := range append(genTerms(1000), NewTypedLiteral("x", "http://ex.org/dt"), NewLangLiteral("x", "en-gb")) {
		if !seen[tm] {
			seen[tm] = true
			terms = append(terms, tm)
		}
	}
	asBytes := func(tm Term) TermBytes {
		return TermBytes{Kind: tm.Kind, Value: []byte(tm.Value), Datatype: []byte(tm.Datatype), Lang: []byte(tm.Lang)}
	}
	s, p1, p2 := NewIRI("http://ex.org/s"), NewIRI("http://ex.org/p1"), NewIRI("http://ex.org/p2")
	for _, spill := range []bool{false, true} {
		for _, bytesFirst := range []bool{false, true} {
			t.Run(fmt.Sprintf("spill=%v/bytes_first=%v", spill, bytesFirst), func(t *testing.T) {
				g := NewGraph()
				add := func(asTermBytes bool, tr Triple) {
					if !asTermBytes {
						g.Add(tr)
						return
					}
					bs, bp, bo := asBytes(tr.S), asBytes(tr.P), asBytes(tr.O)
					g.AddBytes(&bs, &bp, &bo)
				}
				for _, tm := range terms {
					add(bytesFirst, NewTriple(s, p1, tm))
				}
				want := make([]TermID, len(terms))
				for i, tm := range terms {
					id, ok := g.Dict().Lookup(tm)
					if !ok || g.Dict().Term(id) != tm {
						t.Fatalf("%v: Lookup = %d, %v; Term = %v", tm, id, ok, g.Dict().Term(id))
					}
					want[i] = id
				}
				if spill {
					if err := g.Spill(t.TempDir(), nil); err != nil {
						t.Fatal(err)
					}
				}
				n := g.Dict().Len()
				for i, tm := range terms {
					add(!bytesFirst, NewTriple(s, p2, tm))
					if _, _, o, _ := g.EncodedAt(g.NumSlots() - 1); o != want[i] {
						t.Fatalf("%v: id %d in the other form, %d in the first", tm, o, want[i])
					}
				}
				if got := g.Dict().Len(); got != n+1 { // p2 only
					t.Fatalf("the second form added %d terms, want 1", got-n)
				}
				if spill {
					bs, bp, bo := asBytes(s), asBytes(p1), asBytes(terms[len(terms)-1])
					if a := testing.AllocsPerRun(100, func() { g.AddBytes(&bs, &bp, &bo) }); a != 0 {
						t.Fatalf("re-admitting a spilled statement from bytes allocates %v times", a)
					}
				}
			})
		}
	}
}
