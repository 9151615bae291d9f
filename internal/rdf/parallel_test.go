package rdf

import (
	"fmt"
	"testing"
)

// genTerms returns a term stream with plenty of duplicates across all kinds.
func genTerms(n int) []Term {
	out := make([]Term, 0, n)
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0:
			out = append(out, NewIRI(fmt.Sprintf("http://ex.org/e%d", i%97)))
		case 1:
			out = append(out, NewBlank(fmt.Sprintf("b%d", i%53)))
		case 2:
			out = append(out, NewLiteral(fmt.Sprintf("plain %d", i%71)))
		case 3:
			out = append(out, NewTypedLiteral(fmt.Sprintf("%d", i%89), XSDInteger))
		default:
			out = append(out, NewLangLiteral(fmt.Sprintf("hello %d", i%61), "en"))
		}
	}
	return out
}

// TestGraphIterationOrderInterleavedAddRemove is the regression test for the
// documented iteration-order guarantee: interleaved Add/Remove never reorders
// survivors, and a re-added triple moves to the end of the order.
func TestGraphIterationOrderInterleavedAddRemove(t *testing.T) {
	mk := func(i int) Triple {
		return NewTriple(NewIRI(fmt.Sprintf("http://ex.org/s%d", i)), NewIRI("http://ex.org/p"), NewLiteral(fmt.Sprintf("v%d", i)))
	}
	g := NewGraph()
	for i := 1; i <= 5; i++ {
		g.Add(mk(i))
	}
	if !g.Remove(mk(2)) {
		t.Fatal("Remove(t2) = false, want true")
	}
	g.Add(mk(6))
	g.Add(mk(2)) // re-admit: must land at the end
	g.Remove(mk(4))

	want := []Triple{mk(1), mk(3), mk(5), mk(6), mk(2)}
	check := func(name string, got []Triple) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d triples, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	check("Triples", g.Triples())

	var fe []Triple
	g.ForEach(func(tr Triple) bool { fe = append(fe, tr); return true })
	check("ForEach", fe)

	// The posting-list path (predicate index) must skip tombstones and agree.
	p := NewIRI("http://ex.org/p")
	var m []Triple
	g.Match(nil, &p, nil, func(tr Triple) bool { m = append(m, tr); return true })
	check("Match(byPred)", m)

	// The full-scan path (no bound component) as well.
	var fs []Triple
	g.Match(nil, nil, nil, func(tr Triple) bool { fs = append(fs, tr); return true })
	check("Match(scan)", fs)

	var fenc []Triple
	g.ForEachEncoded(func(_ int, s, pp, o TermID) bool {
		fenc = append(fenc, Triple{S: g.dict.Term(s), P: g.dict.Term(pp), O: g.dict.Term(o)})
		return true
	})
	check("ForEachEncoded", fenc)

	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
}

// TestDictInternNoAllocsOnHit guards the interning hot path: re-interning an
// already-interned term must not allocate.
func TestDictInternNoAllocsOnHit(t *testing.T) {
	d := NewDict()
	terms := genTerms(64)
	for _, tm := range terms {
		d.Intern(tm)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, tm := range terms {
			d.Intern(tm)
		}
	})
	if allocs != 0 {
		t.Fatalf("Dict.Intern of interned terms allocates %.1f times per run, want 0", allocs)
	}
}
