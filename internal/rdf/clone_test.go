package rdf

import (
	"fmt"
	"math/rand"
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
			m.g.Grow(rng.Intn(300)) // a capacity hint: nothing observable may change
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
