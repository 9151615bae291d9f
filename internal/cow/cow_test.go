package cow

import (
	"fmt"
	"math/rand"
	"testing"
)

// The three tests below share one shape: a family of containers related by
// Clone (clones of clones included), each paired with a plain model that is
// deep-copied at the same moment. Random mutations hit random members; after
// every step every member must still equal its own model — a write that
// leaks through a shared page, array or map shows up in another member.

const (
	steps   = 4000
	maxFam  = 8
	idSpace = 5 * pageSize // several pages, so page copies and growth both occur
)

func TestTableCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type member struct {
		tab   *Table[int]
		model map[int]int
		n     int
	}
	fam := []*member{{tab: &Table[int]{}, model: map[int]int{}}}
	for step := 0; step < steps; step++ {
		m := fam[rng.Intn(len(fam))]
		if rng.Intn(20) == 0 && len(fam) < maxFam {
			c := m.tab.Clone()
			model := make(map[int]int, len(m.model))
			for k, v := range m.model {
				model[k] = v
			}
			fam = append(fam, &member{tab: &c, model: model, n: m.n})
			continue
		}
		i, v := rng.Intn(idSpace), rng.Int()
		*m.tab.Edit(i, nil) = v
		m.model[i] = v
		if i >= m.n {
			m.n = i + 1
		}
		for fi, f := range fam {
			if f.tab.Len() != f.n {
				t.Fatalf("step %d: member %d Len = %d, want %d", step, fi, f.tab.Len(), f.n)
			}
			for k := 0; k < idSpace; k++ {
				if got := f.tab.At(k); got != f.model[k] {
					t.Fatalf("step %d: member %d At(%d) = %d, want %d", step, fi, k, got, f.model[k])
				}
			}
		}
	}
}

// TestTableEditSharesOncePerPageCopy: the hook runs on every element of a page
// when a write copies it away from a clone, and not on writes to a page that
// is private already.
func TestTableEditSharesOncePerPageCopy(t *testing.T) {
	var tab Table[int]
	calls := 0
	shared := func(*int) { calls++ }
	*tab.Edit(3, shared) = 1
	*tab.Edit(pageSize+1, shared) = 2
	if calls != 0 {
		t.Fatalf("%d calls while nothing is shared", calls)
	}
	c := tab.Clone()
	*tab.Edit(4, shared) = 3
	*tab.Edit(5, shared) = 4
	if calls != pageSize {
		t.Fatalf("%d calls after two writes to one shared page, want %d", calls, pageSize)
	}
	*c.Edit(pageSize+2, shared) = 5
	if calls != 2*pageSize || c.At(4) != 0 || tab.At(pageSize+2) != 0 || tab.At(4) != 3 {
		t.Fatalf("calls = %d, c[4] = %d, tab[%d] = %d", calls, c.At(4), pageSize+2, tab.At(pageSize+2))
	}
}

func TestListsCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	type member struct {
		lists *Lists[int32]
		model map[int][]int32
	}
	fam := []*member{{lists: &Lists[int32]{}, model: map[int][]int32{}}}
	check := func(step int) {
		for fi, f := range fam {
			for k := 0; k < idSpace; k++ {
				got, want := f.lists.At(k), f.model[k]
				if len(got) != len(want) {
					t.Fatalf("step %d: member %d list %d has %d entries, want %d", step, fi, k, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("step %d: member %d list %d[%d] = %d, want %d", step, fi, k, j, got[j], want[j])
					}
				}
			}
		}
	}
	for step := 0; step < steps; step++ {
		m := fam[rng.Intn(len(fam))]
		// Few distinct ids, so lists grow long enough to have spare capacity.
		i := rng.Intn(idSpace) / 40 * 40
		switch op := rng.Intn(20); {
		case op == 0 && len(fam) < maxFam:
			c := m.lists.Clone()
			model := make(map[int][]int32, len(m.model))
			for k, v := range m.model {
				model[k] = append([]int32(nil), v...)
			}
			fam = append(fam, &member{lists: &c, model: model})
		case op == 1:
			if len(m.model[i]) > 0 {
				m.lists.Pop(i)
				m.model[i] = m.model[i][:len(m.model[i])-1]
			}
		default:
			e := rng.Int31()
			m.lists.Append(i, e)
			m.model[i] = append(m.model[i], e)
		}
		if step%16 == 0 {
			check(step)
		}
	}
	check(steps)
}

// TestListsReceiverKeepsCapacity pins the ownership rule for spare capacity:
// the table Clone was called on appends in place after the Clone (one array
// for the life of the list), the clone reallocates on its first append.
func TestListsReceiverKeepsCapacity(t *testing.T) {
	var l Lists[int32]
	for i := int32(0); i < 100; i++ {
		l.Append(7, i)
	}
	before := &l.At(7)[0]
	c := l.Clone()
	spare := cap(l.At(7)) - len(l.At(7))
	if spare == 0 {
		t.Skip("append left no spare capacity to test with")
	}
	l.Append(7, 100)
	if &l.At(7)[0] != before {
		t.Fatal("the receiver of Clone reallocated a list it had spare capacity for")
	}
	c.Append(7, -1)
	if &c.At(7)[0] == before {
		t.Fatal("the clone appended into the array it shares with the original")
	}
	if got := l.At(7)[100]; got != 100 {
		t.Fatalf("the clone's append overwrote the original's: %d", got)
	}
}

func TestMapCloneIsolationAndFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type member struct {
		m     *Map[int, int]
		model map[int]int
	}
	fam := []*member{{m: &Map[int, int]{}, model: map[int]int{}}}
	folds0 := cMapFolds.Value()
	next := 0
	for step := 0; step < steps; step++ {
		m := fam[rng.Intn(len(fam))]
		if rng.Intn(25) == 0 {
			c := m.m.Clone()
			if len(m.m.over)*foldDen > len(m.m.base) {
				t.Fatalf("step %d: Clone left an overlay of %d over a base of %d", step, len(m.m.over), len(m.m.base))
			}
			model := make(map[int]int, len(m.model))
			for k, v := range m.model {
				model[k] = v
			}
			nm := &member{m: &c, model: model}
			if len(fam) < maxFam {
				fam = append(fam, nm)
			} else {
				fam[rng.Intn(len(fam))] = nm
			}
			continue
		}
		// Three Puts in four add a key no member holds, the fourth replaces
		// the value of one some member does, in whichever layer it is.
		k := next
		if next > 0 && rng.Intn(4) == 0 {
			k = rng.Intn(next)
		} else {
			next++
		}
		m.m.Put(k, step)
		m.model[k] = step
		if step%16 == 0 {
			for fi, f := range fam {
				for k := 0; k < next; k++ {
					got, ok := f.m.Get(k)
					want, wok := f.model[k]
					if ok != wok || got != want {
						t.Fatalf("step %d: member %d Get(%d) = %d,%v want %d,%v", step, fi, k, got, ok, want, wok)
					}
				}
			}
		}
	}
	if cMapFolds.Value() == folds0 {
		t.Fatal("no Clone folded its overlay: the test never exercised the fold")
	}
}

// TestMapGetOrPut: GetOrPut keeps the first value whichever layer holds the
// key — the shared base, the private overlay, a base made by a fold — and an
// insertion on one side of a Clone stays invisible to the other.
func TestMapGetOrPut(t *testing.T) {
	check := func(m *Map[string, int], k string, v, want int, wantPresent bool) {
		t.Helper()
		if got, present := m.GetOrPut(k, v); got != want || present != wantPresent {
			t.Fatalf("GetOrPut(%q, %d) = %d, %v; want %d, %v", k, v, got, present, want, wantPresent)
		}
		if got, ok := m.Get(k); !ok || got != want {
			t.Fatalf("Get(%q) after GetOrPut = %d, %v; want %d", k, got, ok, want)
		}
	}

	var m Map[string, int]
	check(&m, "a", 1, 1, false) // zero map: inserted
	check(&m, "a", 2, 1, true)  // overlay hit keeps the first value

	c := m.Clone() // "a" is now in the shared base of both
	if m.base == nil {
		t.Fatal("Clone did not fold the overlay of a map that had no base")
	}
	check(&m, "a", 3, 1, true) // base hit
	check(&c, "a", 4, 1, true)
	check(&m, "b", 5, 5, false) // overlay insert over a base
	check(&m, "b", 6, 5, true)
	if _, ok := c.Get("b"); ok {
		t.Fatal("the original's insertion is visible in the clone")
	}
	check(&c, "b", 7, 7, false) // the clone inserts its own
	check(&m, "b", 8, 5, true)

	// Outgrow the base so the next Clone folds, then hit keys of every age.
	folds0 := cMapFolds.Value()
	for i := 0; i < 4*foldDen; i++ {
		check(&m, string(rune('k'+i)), 100+i, 100+i, false)
	}
	f := m.Clone()
	if cMapFolds.Value() == folds0 {
		t.Fatal("Clone did not fold an overlay larger than its base")
	}
	for _, mm := range []*Map[string, int]{&m, &f} {
		check(mm, "a", 9, 1, true)
		check(mm, "b", 9, 5, true)
		check(mm, "k", 9, 100, true)
	}
	check(&f, "z-new", 10, 10, false)
	if _, ok := m.Get("z-new"); ok {
		t.Fatal("the clone's insertion after a fold is visible in the original")
	}
}

// TestListsNext: Next walks exactly the non-empty lists in id order, across
// pages never written and lists emptied by Pop.
func TestListsNext(t *testing.T) {
	var l Lists[int32]
	if got := l.Next(0); got != -1 {
		t.Fatalf("Next on empty lists = %d", got)
	}
	want := []int{3, pageSize - 1, pageSize, 5*pageSize + 17, 9 * pageSize}
	for _, id := range want {
		l.Append(id, int32(id))
	}
	l.Append(4*pageSize+1, 7)
	l.Pop(4*pageSize + 1) // written page, empty list
	var got []int
	for id := l.Next(0); id >= 0; id = l.Next(id + 1) {
		got = append(got, id)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Next visited %v, want %v", got, want)
	}
	if id := l.Next(9*pageSize + 1); id != -1 {
		t.Fatalf("Next past the last list = %d", id)
	}
}
