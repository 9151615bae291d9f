package rdf

import (
	"fmt"
	"strings"
	"sync"
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

// TestIndexedReadsAllocateNothing guards the read path of a built index:
// Match over a bound subject (the watermark's check, the posting list, the
// decode) allocates nothing, resident or spilled — a subject whose postings
// are all in the tail, and one with postings in a segment and in the tail,
// which Match walks part by part rather than merging. A catch-up closure
// that escaped to the heap would allocate on every read.
func TestIndexedReadsAllocateNothing(t *testing.T) {
	for _, tc := range []struct {
		name, subject string
		spilled       bool
	}{{"resident", "p7", false}, {"tail", "late", true}, {"segment+tail", "p7", true}} {
		g, s := spillFixture(120), ex(tc.subject)
		if tc.spilled {
			g = spillIn(t, spillFixture(120), 2, t.TempDir())
			g.Add(NewTriple(s, ex("knows"), ex("p7")))
			g.Add(NewTriple(s, A, ex("Person")))
		}
		n := 0
		count := func(Triple) bool { n++; return true }
		g.Match(&s, nil, nil, count) // builds the index
		if allocs := testing.AllocsPerRun(100, func() { g.Match(&s, nil, nil, count) }); allocs != 0 {
			t.Errorf("%s: Match over a bound subject allocates %.1f times per run, want 0", tc.name, allocs)
		}
		if n == 0 {
			t.Fatalf("%s: Match found nothing", tc.name)
		}
	}
}

// TestConcurrentFirstReaders: eight goroutines query a graph nothing has read
// yet — resident, and spilled with an unread tail — so that one of them
// builds the posting lists while the others wait for it or read after it.
// Every answer (Match, MatchEncoded and Has per pattern) must equal the one a
// twin gives that was read once before it was shared. make race runs it
// under the race detector.
func TestConcurrentFirstReaders(t *testing.T) {
	build := func(spilled bool) *Graph {
		if !spilled {
			return spillFixture(120)
		}
		g := spillIn(t, spillFixture(120), 2, t.TempDir())
		for i := 0; i < 100; i++ {
			g.Add(NewTriple(ex(fmt.Sprintf("p%d", i%40)), ex("knows"), ex(fmt.Sprintf("late%d", i))))
		}
		return g
	}
	answer := func(g *Graph, tr Triple, mask int) string {
		comps := [3]Term{tr.S, tr.P, tr.O}
		var pat [3]*Term
		ids := [3]TermID{noID, noID, noID}
		for k := range pat {
			if mask>>k&1 != 0 {
				pat[k] = &comps[k]
				ids[k], _ = g.Dict().Lookup(comps[k])
			}
		}
		var b strings.Builder
		g.Match(pat[0], pat[1], pat[2], func(x Triple) bool { b.WriteString(x.String()); return true })
		g.MatchEncoded(ids[0], ids[1], ids[2], func(s, p, o TermID) bool { fmt.Fprint(&b, s, p, o, ";"); return true })
		fmt.Fprint(&b, g.Has(tr))
		return b.String()
	}
	for _, spilled := range []bool{false, true} {
		t.Run(fmt.Sprint("spilled=", spilled), func(t *testing.T) {
			twin, g := build(spilled), build(spilled)
			if g.indexed.Load() != 0 || len(g.triples) == 0 {
				t.Fatalf("the graph under test has %d of %d tail slots indexed, want an unread tail", g.indexed.Load(), len(g.triples))
			}
			var pats []Triple
			all := twin.Triples()
			for i := 0; i < len(all); i += 13 {
				pats = append(pats, all[i], NewTriple(all[i].S, all[i].P, all[(i+7)%len(all)].O))
			}
			want := make([]string, 0, 7*len(pats))
			for _, tr := range pats {
				for mask := 1; mask < 8; mask++ {
					want = append(want, answer(twin, tr, mask))
				}
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 8; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					<-start
					for j := range want {
						q := (j + r*len(want)/8) % len(want) // each reader starts elsewhere
						if got := answer(g, pats[q/7], q%7+1); got != want[q] {
							t.Errorf("reader %d, pattern %v mask %03b: got %q, want %q", r, pats[q/7], q%7+1, got, want[q])
							return
						}
					}
				}(r)
			}
			close(start)
			wg.Wait()
		})
	}
}
