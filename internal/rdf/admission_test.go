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
