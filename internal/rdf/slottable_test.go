package rdf

import (
	"math/rand"
	"testing"
)

// checkSlotTable holds a duplicate index to its model: every modelled triple
// is found at its position, n counts the entries, and each entry is reachable
// from its home slot without crossing an empty one (what backward-shift
// deletion must preserve).
func checkSlotTable(t *testing.T, tt *slotTable, hash func(encTriple) uint32, triples []encTriple, model map[encTriple]int) {
	t.Helper()
	if tt.n != len(model) {
		t.Fatalf("table holds %d entries, model %d", tt.n, len(model))
	}
	for e, pos := range model {
		if _, got, ok := findTriple(tt, hash(e), e, triples); !ok || got != pos {
			t.Fatalf("find(%v) = %d,%v, want position %d", e, got, ok, pos)
		}
	}
	mask := len(tt.slots) - 1
	for j, s := range tt.slots {
		if s == 0 {
			continue
		}
		for i := int(uint32(s>>32)) & mask; i != j; i = (i + 1) & mask {
			if tt.slots[i] == 0 {
				t.Fatalf("entry in slot %d is cut off from its home by the empty slot %d", j, i)
			}
		}
	}
}

// TestSlotTableBackwardShift: five triples with one home slot near the end of
// a 16-slot table form a probe run that wraps around to slot 0; removing the
// second one shifts the three behind it back by one, across the wrap.
func TestSlotTableBackwardShift(t *testing.T) {
	hash := func(encTriple) uint32 { return 14 }
	var tt slotTable
	var triples []encTriple
	model := map[encTriple]int{}
	for i := 0; i < 5; i++ {
		e := encTriple{TermID(i), 1, 2}
		slot, _, ok := findTriple(&tt, hash(e), e, triples)
		if ok {
			t.Fatalf("%v found before it was inserted", e)
		}
		tt.insert(slot, hash(e), len(triples))
		model[e] = len(triples)
		triples = append(triples, e)
	}
	if len(tt.slots) != 16 {
		t.Fatalf("table has %d slots, want 16", len(tt.slots))
	}
	at := func(i int) int { return int(uint32(tt.slots[i])) - 1 } // position held by slot i, -1 when empty
	for i, want := range map[int]int{14: 0, 15: 1, 0: 2, 1: 3, 2: 4, 3: -1} {
		if at(i) != want {
			t.Fatalf("before removal slot %d holds position %d, want %d", i, at(i), want)
		}
	}
	slot, _, _ := findTriple(&tt, 14, triples[1], triples)
	tt.remove(slot)
	delete(model, triples[1])
	for i, want := range map[int]int{14: 0, 15: 2, 0: 3, 1: 4, 2: -1} {
		if at(i) != want {
			t.Fatalf("after removal slot %d holds position %d, want %d", i, at(i), want)
		}
	}
	checkSlotTable(t, &tt, hash, triples, model)
}

// TestSlotTableAgainstMap runs random insert, find and remove sequences
// against a map, first with the hash forced into four home slots that straddle
// the end of a table kept at 16 slots (long runs that wrap, removals in the
// middle of them), then with the real hash through several resizes.
func TestSlotTableAgainstMap(t *testing.T) {
	for _, tc := range []struct {
		name    string
		hash    func(encTriple) uint32
		maxLive int
	}{
		{"forced", func(e encTriple) uint32 { return 13 + uint32(e.s)%4 }, 8},
		{"real", encTriple.hash, 3000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			var tt slotTable
			var triples []encTriple
			model := map[encTriple]int{}
			universe := 2 * tc.maxLive
			for step := 0; step < 20*tc.maxLive+200; step++ {
				e := encTriple{TermID(rng.Intn(universe)), TermID(rng.Intn(3)), 7}
				slot, pos, ok := findTriple(&tt, tc.hash(e), e, triples)
				want, in := model[e]
				if ok != in || ok && pos != want {
					t.Fatalf("step %d: find(%v) = %d,%v, want %d,%v", step, e, pos, ok, want, in)
				}
				switch {
				case ok && (len(model) == tc.maxLive || rng.Intn(2) == 0):
					tt.remove(slot)
					delete(model, e)
				case !ok && len(model) < tc.maxLive:
					tt.insert(slot, tc.hash(e), len(triples))
					model[e] = len(triples)
					triples = append(triples, e)
				}
				if tc.maxLive <= 8 && len(tt.slots) != 16 {
					t.Fatalf("step %d: the forced run resized the table to %d slots", step, len(tt.slots))
				}
				if step%97 == 0 || tc.maxLive <= 8 {
					checkSlotTable(t, &tt, tc.hash, triples, model)
				}
			}
			checkSlotTable(t, &tt, tc.hash, triples, model)
		})
	}
}
