package rdf

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// deepClone is what Graph.Clone used to be for a resident graph — a fresh
// dictionary and a re-Add of every live triple — kept as the test oracle: it
// shares nothing with g by construction.
func deepClone(g *Graph) *Graph {
	c := NewGraph()
	c.AddAll(g)
	return c
}

// slotModel and graphModel are the plain-slice model of a Graph's admission
// log: every Add appends a slot, Remove tombstones one, nothing moves.
type slotModel struct {
	t    Triple
	dead bool
}

type graphModel struct{ slots []slotModel }

func (m *graphModel) clone() *graphModel {
	return &graphModel{slots: append([]slotModel(nil), m.slots...)}
}

func (m *graphModel) slotOf(t Triple) int {
	for i, s := range m.slots {
		if !s.dead && s.t == t {
			return i
		}
	}
	return -1
}

func (m *graphModel) live() []Triple {
	var out []Triple
	for _, s := range m.slots {
		if !s.dead {
			out = append(out, s.t)
		}
	}
	return out
}

type cloneMember struct {
	g       *Graph
	model   *graphModel
	oracle  *Graph // deepClone taken when the member was cloned; nil for the root
	frozen  bool   // never mutated after its Clone: must keep equalling oracle
	spilled bool
}

// TestCloneContract is the property test for "mutating either side after
// Clone is invisible to the other": a family of graphs related by Clone
// (clones of clones included), each checked against its own model after
// random Add, Remove, Unremove, TruncateFrom, Grow and Spill calls on random
// members, spilled or not. Reads (one Match per component) at random steps
// make the posting lists catch up between every kind of mutation.
// bench/inputs.go and exp/experiments.go rely on exactly this.
func TestCloneContract(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { cloneContract(t, seed) })
	}
	t.Run("bytes", cloneBytesIsolation)
}

func cloneContract(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	term := func(kind string, n int) Term {
		if kind == "o" && n%3 == 0 {
			return NewLiteral(fmt.Sprintf("value %d", n))
		}
		return NewIRI(fmt.Sprintf("http://example.org/%s%d", kind, n))
	}
	// The term universe grows with the step count, so that members keep
	// interning terms their relatives have never seen.
	universe := 24
	randTriple := func() Triple {
		p := term("p", rng.Intn(5))
		if rng.Intn(6) == 0 {
			p = A
		}
		return NewTriple(term("s", rng.Intn(universe)), p, term("o", rng.Intn(universe+6)))
	}

	fam := []*cloneMember{{g: NewGraph(), model: &graphModel{}}}
	for i := 0; i < 150; i++ {
		tr := randTriple()
		if fam[0].g.Add(tr) {
			fam[0].model.slots = append(fam[0].model.slots, slotModel{t: tr})
		}
	}

	// matchEach runs one bound-component scan per index.
	matchEach := func(ctx string, m *cloneMember, tr Triple) {
		t.Helper()
		for k, pat := range [3][3]*Term{{&tr.S, nil, nil}, {nil, &tr.P, nil}, {nil, nil, &tr.O}} {
			var gotM, wantM []Triple
			m.g.Match(pat[0], pat[1], pat[2], func(x Triple) bool { gotM = append(gotM, x); return true })
			for _, x := range m.model.live() {
				if (k == 0 && x.S == tr.S) || (k == 1 && x.P == tr.P) || (k == 2 && x.O == tr.O) {
					wantM = append(wantM, x)
				}
			}
			if fmt.Sprint(gotM) != fmt.Sprint(wantM) {
				t.Fatalf("%s: Match on component %d of %v = %v, want %v", ctx, k, tr, gotM, wantM)
			}
		}
	}

	check := func(step int, what string) {
		t.Helper()
		for mi, m := range fam {
			ctx := fmt.Sprintf("step %d (%s), member %d", step, what, mi)
			want := m.model.live()
			if m.g.Len() != len(want) || m.g.NumSlots() != len(m.model.slots) {
				t.Fatalf("%s: Len/NumSlots = %d/%d, want %d/%d", ctx, m.g.Len(), m.g.NumSlots(), len(want), len(m.model.slots))
			}
			got := m.g.Triples()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: triple %d in admission order = %v, want %v", ctx, i, got[i], want[i])
				}
			}
			// Point lookups (the clone answers them without a duplicate
			// index) and one bound-component scan per index.
			for i := 0; i < 12; i++ {
				tr := randTriple()
				if has, want := m.g.Has(tr), m.model.slotOf(tr) >= 0; has != want {
					t.Fatalf("%s: Has(%v) = %v, want %v", ctx, tr, has, want)
				}
				idx, ok := m.g.IndexOf(tr)
				if w := m.model.slotOf(tr); ok != (w >= 0) || (ok && int(idx) != w) {
					t.Fatalf("%s: IndexOf(%v) = %d,%v, want slot %d", ctx, tr, idx, ok, w)
				}
				matchEach(ctx, m, tr)
			}
			if m.frozen && !m.g.Equal(m.oracle) {
				t.Fatalf("%s: a clone nobody mutated no longer equals the deep copy taken beside it", ctx)
			}
		}
	}

	const steps = 1500
	spills := 0
	for step := 0; step < steps; step++ {
		universe = 24 + step/25
		m := fam[rng.Intn(len(fam))]
		what := ""
		switch op := rng.Intn(100); {
		case op < 4 && len(fam) < 7:
			what = "Clone"
			fam = append(fam, &cloneMember{g: m.g.Clone(), model: m.model.clone(), oracle: deepClone(m.g), frozen: true, spilled: m.spilled})
			continue
		case op < 6 && !m.frozen && spills < 6:
			what = "Spill"
			if err := m.g.Spill(t.TempDir(), nil); err != nil {
				t.Fatal(err)
			}
			m.spilled = true
			spills++
		case op < 10 && len(fam) > 2 && rng.Intn(3) == 0:
			// Thaw a frozen clone: from now on it is mutated like the others.
			m.frozen = false
		case op < 18 && rng.Intn(2) == 0:
			// A read, frozen members included: the posting lists catch up on
			// whatever was admitted, removed or truncated since the last one.
			what = "Match"
			matchEach(fmt.Sprintf("step %d (Match)", step), m, randTriple())
		case m.frozen:
			continue
		case op < 13:
			what = "Grow"
			n := rng.Intn(300) // a capacity hint: nothing observable may change
			m.g.GrowDict(n)
			m.g.GrowLog(n)
		case op < 55:
			what = "Add"
			tr := randTriple()
			if got, want := m.g.Add(tr), m.model.slotOf(tr) < 0; got != want {
				t.Fatalf("step %d: Add(%v) = %v, want %v", step, tr, got, want)
			} else if got {
				m.model.slots = append(m.model.slots, slotModel{t: tr})
			}
		case op < 80:
			what = "Remove"
			tr := randTriple()
			if live := m.model.live(); len(live) > 0 && rng.Intn(2) == 0 {
				tr = live[rng.Intn(len(live))]
			}
			w := m.model.slotOf(tr)
			if got := m.g.Remove(tr); got != (w >= 0) {
				t.Fatalf("step %d: Remove(%v) = %v, want %v", step, tr, got, w >= 0)
			}
			if w >= 0 {
				m.model.slots[w].dead = true
			}
		case op < 90 && len(m.model.slots) > 0:
			what = "Unremove"
			idx := rng.Intn(len(m.model.slots))
			s := m.model.slots[idx]
			want := s.dead && m.model.slotOf(s.t) < 0
			if got := m.g.Unremove(int32(idx), s.t); got != want {
				t.Fatalf("step %d: Unremove(%d, %v) = %v, want %v", step, idx, s.t, got, want)
			}
			if want {
				m.model.slots[idx].dead = false
			}
		case len(m.model.slots) > 0:
			what = "TruncateFrom"
			n := max(len(m.model.slots)-rng.Intn(4), m.g.spillBase()) // the spilled prefix is not for rollback
			m.g.TruncateFrom(n)
			m.model.slots = m.model.slots[:n]
		default:
			continue
		}
		if step%32 == 0 {
			check(step, what)
		}
	}
	check(steps, "end")
	if len(fam) < 4 {
		t.Fatalf("only %d family members: the schedule never cloned a clone", len(fam))
	}
}

func mustLookup(t *testing.T, g *Graph, tm Term) TermID {
	t.Helper()
	id, ok := g.Dict().Lookup(tm)
	if !ok {
		t.Fatalf("%v is not interned", tm)
	}
	return id
}

// addScribbled is AddBytes of tr from buffers it overwrites once the call
// returns: whatever the graph keeps of the terms, it must have copied.
func addScribbled(g *Graph, tr Triple) bool {
	var tb [3]TermBytes
	for i, tm := range [3]Term{tr.S, tr.P, tr.O} {
		tb[i] = TermBytes{Kind: tm.Kind, Value: []byte(tm.Value), Datatype: []byte(tm.Datatype), Lang: []byte(tm.Lang)}
	}
	added := g.AddBytes(&tb[0], &tb[1], &tb[2])
	for i := range tb {
		for _, b := range [][]byte{tb[i].Value, tb[i].Datatype, tb[i].Lang} {
			for j := range b {
				b[j] = '#'
			}
		}
	}
	return added
}

// cloneBytesIsolation: terms admitted from bytes live in the dictionary's
// chunks, and Term hands out strings that alias them. After a Clone of a
// bytes-loaded graph, both sides AddBytes new typed and language-tagged
// terms — filling the chunk room the original kept, opening chunks of their
// own, and some values too long to share a chunk — while readers decode the
// clone, then each side's terms, names included, on the other side; then the
// original spills, dropping its chunks. Every term either side returned
// before, and every term each side holds, must read back unchanged, and
// neither side may see the other's new terms until it adds them.
func cloneBytesIsolation(t *testing.T) {
	term := func(side string, i int) Term {
		switch i % 5 {
		case 0:
			return NewTypedLiteral(fmt.Sprintf("%s typed %d", side, i), fmt.Sprintf("http://example.org/dt/%s%d", side, i%7))
		case 1:
			return NewLangLiteral(fmt.Sprintf("%s tagged %d", side, i), fmt.Sprintf("x-%s%d", side, i%5))
		case 2:
			return NewLiteral(side + strings.Repeat("v", i%3*bigValue/2)) // up to past bigValue
		default:
			return NewIRI(fmt.Sprintf("http://example.org/%s/%d", side, i))
		}
	}
	triple := func(side string, i int) Triple {
		return NewTriple(NewIRI(fmt.Sprintf("http://example.org/s%d", i%17)), NewIRI(fmt.Sprintf("http://example.org/p%d", i%3)), term(side, i))
	}
	// decode returns every term of g's dictionary: held aliases the chunks,
	// want is a private copy of the same strings.
	decode := func(g *Graph) (held, want []Term) {
		for id := 0; id < g.Dict().Len(); id++ {
			tm := g.Dict().Term(TermID(id))
			held = append(held, tm)
			want = append(want, Term{Kind: tm.Kind, Value: strings.Clone(tm.Value), Datatype: strings.Clone(tm.Datatype), Lang: strings.Clone(tm.Lang)})
		}
		return held, want
	}
	requireTerms := func(what string, g *Graph, held, want []Term) {
		t.Helper()
		for id, w := range want {
			if got := g.Dict().Term(TermID(id)); got != w {
				t.Fatalf("%s: term %d reads %v, want %v", what, id, got, w)
			}
			if held[id] != w {
				t.Fatalf("%s: term %d decoded before now reads %v, want %v", what, id, held[id], w)
			}
		}
	}

	g := NewGraph()
	for i := 0; i < 400; i++ {
		addScribbled(g, triple("base", i))
	}
	held, want := decode(g)
	c := g.Clone()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // a snapshot's reader, beside the writers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for id := range want {
				if c.Dict().Term(TermID(id)) != want[id] {
					panic(fmt.Sprintf("clone term %d changed under a reader", id))
				}
			}
		}
	}()
	for i := 0; i < 400; i++ {
		addScribbled(g, triple("orig", i))
	}
	close(stop)
	wg.Wait()
	for i := 0; i < 400; i++ {
		addScribbled(c, triple("clone", i))
	}
	requireTerms("original", g, held, want)
	requireTerms("clone", c, held, want)
	gHeld, gWant := decode(g)
	cHeld, cWant := decode(c)

	for _, side := range [...]struct {
		name        string
		g           *Graph
		own, others string
	}{{"original", g, "orig", "clone"}, {"clone", c, "clone", "orig"}} {
		for i := 0; i < 400; i++ {
			own, other := term(side.own, i), term(side.others, i)
			if id, ok := side.g.Dict().Lookup(own); !ok || side.g.Dict().Term(id) != own {
				t.Fatalf("%s: its own term %v reads %d,%v", side.name, own, id, ok)
			}
			if id, ok := side.g.Dict().Lookup(other); ok {
				t.Fatalf("%s: holds the other side's term %v as %d", side.name, other, id)
			}
		}
	}
	// Then each side takes the other's terms, datatypes and tags included,
	// as names of its own.
	for _, side := range [...]struct {
		name   string
		g      *Graph
		others string
	}{{"original", g, "clone"}, {"clone", c, "orig"}} {
		for i := 0; i < 400; i++ {
			addScribbled(side.g, triple(side.others, i))
		}
		for i := 0; i < 400; i++ {
			if tm := term(side.others, i); side.g.Dict().Term(mustLookup(t, side.g, tm)) != tm {
				t.Fatalf("%s: the other side's term %v reads %v", side.name, tm, side.g.Dict().Term(mustLookup(t, side.g, tm)))
			}
		}
	}
	requireTerms("original", g, gHeld, gWant)
	requireTerms("clone", c, cHeld, cWant)
	gHeld, gWant = decode(g)
	cHeld, cWant = decode(c)

	if err := g.Spill(t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	requireTerms("spilled original", g, gHeld, gWant)
	requireTerms("clone after the original spilled", c, cHeld, cWant)
}

// EncodedAt returns the encoded triple in slot i and whether it is live.
func (g *Graph) EncodedAt(i int) (s, p, o TermID, live bool) {
	e := g.encAt(i)
	return e.s, e.p, e.o, !g.slotDead(i)
}

// AddBytes is Add through its two halves, AdmitEncoded(InternBytes(s, p, o)),
// the way the N-Triples loader admits a statement.
func (g *Graph) AddBytes(s, p, o *TermBytes) bool {
	return g.AdmitEncoded(g.InternBytes(s, p, o))
}
