package rdf

import (
	"fmt"
	"testing"
)

func tr(i int) Triple {
	return NewTriple(NewIRI(fmt.Sprintf("s%d", i)), NewIRI("p"), NewIRI(fmt.Sprintf("o%d", i)))
}

func TestIndexOfTracksAdmissionOrder(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 5; i++ {
		g.Add(tr(i))
	}
	for i := 0; i < 5; i++ {
		idx, ok := g.IndexOf(tr(i))
		if !ok || idx != int32(i) {
			t.Fatalf("IndexOf(tr(%d)) = %d, %v", i, idx, ok)
		}
	}
	g.Remove(tr(2))
	if _, ok := g.IndexOf(tr(2)); ok {
		t.Fatal("IndexOf found a tombstoned triple")
	}
	g.Add(tr(2)) // re-admitted at the end
	idx, ok := g.IndexOf(tr(2))
	if !ok || idx != 5 {
		t.Fatalf("re-added triple got index %d, want 5", idx)
	}
}

func TestUnremoveRestoresExactOrder(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 4; i++ {
		g.Add(tr(i))
	}
	idx, _ := g.IndexOf(tr(1))
	g.Remove(tr(1))
	if !g.Unremove(idx, tr(1)) {
		t.Fatal("Unremove refused a valid tombstone")
	}
	var order []int
	g.ForEach(func(x Triple) bool {
		var n int
		fmt.Sscanf(x.S.Value, "s%d", &n)
		order = append(order, n)
		return true
	})
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Fatalf("order after Unremove = %v", order)
	}
	// Unremove must refuse when the triple was re-added elsewhere.
	g.Remove(tr(1))
	g.Add(tr(1))
	if g.Unremove(idx, tr(1)) {
		t.Fatal("Unremove resurrected a slot for a re-added triple")
	}
}

// TestRollbackTakesGlobalSlotsOnSpilledGraph: over 10 spilled and 5 tail
// slots, Unremove and TruncateFrom count slots as NumSlots and IndexOf do,
// both in the tail and — for Unremove — in the spilled prefix, and keep the
// graph equal to a twin that never spilled.
func TestRollbackTakesGlobalSlotsOnSpilledGraph(t *testing.T) {
	g, want := NewGraph(), NewGraph()
	for i := 0; i < 15; i++ {
		g.Add(tr(i))
		want.Add(tr(i))
		if i == 9 {
			if err := g.Spill(t.TempDir(), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	both := func(f func(*Graph) bool) bool {
		a, b := f(g), f(want)
		if a != b {
			t.Fatalf("spilled graph answers %v, its resident twin %v", a, b)
		}
		return a
	}
	for _, i := range []int{12, 3} { // a tail slot, then a spilled one
		both(func(x *Graph) bool { return x.Remove(tr(i)) })
		if !both(func(x *Graph) bool { return x.Unremove(int32(i), tr(i)) }) {
			t.Fatalf("Unremove(%d) of a removed slot refused", i)
		}
		if idx, ok := g.IndexOf(tr(i)); !ok || idx != int32(i) {
			t.Fatalf("IndexOf(tr(%d)) after Unremove = %d,%v", i, idx, ok)
		}
	}
	// A spilled tombstone whose triple was re-added in the tail stays dead.
	both(func(x *Graph) bool { return x.Remove(tr(3)) })
	both(func(x *Graph) bool { return x.Add(tr(3)) })
	if both(func(x *Graph) bool { return x.Unremove(3, tr(3)) }) {
		t.Fatal("Unremove resurrected a spilled slot whose triple is live at slot 15")
	}
	g.TruncateFrom(12)
	want.TruncateFrom(12)
	if g.NumSlots() != 12 || g.Has(tr(12)) || g.Has(tr(3)) || !g.Has(tr(11)) {
		t.Fatalf("TruncateFrom(12): NumSlots = %d, Has(12, 3, 11) = %v %v %v", g.NumSlots(), g.Has(tr(12)), g.Has(tr(3)), g.Has(tr(11)))
	}
	if !both(func(x *Graph) bool { return x.Unremove(3, tr(3)) }) {
		t.Fatal("Unremove(3) refused once the re-added copy was truncated")
	}
	assertGraphsEqual(t, g, want)

	defer func() {
		if recover() == nil {
			t.Fatal("TruncateFrom into the spilled prefix did not panic")
		}
	}()
	g.TruncateFrom(5)
}

func TestTruncateFromUndoesAdds(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 3; i++ {
		g.Add(tr(i))
	}
	n := g.NumSlots()
	g.Remove(tr(0))
	g.Add(tr(0)) // slot 3
	g.Add(tr(9)) // slot 4
	g.TruncateFrom(n)
	if g.NumSlots() != n {
		t.Fatalf("NumSlots = %d, want %d", g.NumSlots(), n)
	}
	if g.Has(tr(0)) || g.Has(tr(9)) {
		t.Fatal("truncated triples still present")
	}
	// The tombstone for tr(0) survives truncation and can be resurrected.
	if !g.Unremove(0, tr(0)) {
		t.Fatal("Unremove after truncate failed")
	}
	if g.Len() != 3 {
		t.Fatalf("Len = %d, want 3", g.Len())
	}
	// Subject posting list for tr(9)'s subject must be clean for re-use.
	g.Add(tr(9))
	if idx, ok := g.IndexOf(tr(9)); !ok || idx != int32(n) {
		t.Fatalf("re-add after truncate got index %d, want %d", idx, n)
	}
}
