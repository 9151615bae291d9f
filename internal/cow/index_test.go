package cow

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// group builds lists from (id, element) pairs with a Grouper sized for ids.
func group(ids int, pairs [][2]int32) Lists[int32] {
	g := NewGrouper[int32](ids)
	for _, p := range pairs {
		g.Count(int(p[0]))
	}
	g.Sum()
	for _, p := range pairs {
		g.Place(int(p[0]), p[1])
	}
	return g.Lists()
}

// sameLists fails unless got and want hold the same lists below ids.
func sameLists(t *testing.T, what string, got, want *Lists[int32], ids int) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len %d, want %d", what, got.Len(), want.Len())
	}
	for id := range ids {
		if !slices.Equal(got.At(id), want.At(id)) {
			t.Fatalf("%s: list %d is %v, want %v", what, id, got.At(id), want.At(id))
		}
	}
}

// TestGrouperMatchesAppends checks the grouper against appending the same
// elements one by one: the same lists, in content and order, the same Len —
// over random ids with empty lists between them, a grouper sized past the
// last id used, and no elements at all.
func TestGrouperMatchesAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := range 300 {
		ids := 1 + rng.Intn(3*pageSize)
		used := 1 + rng.Intn(ids) // ids in [used, ids) stay empty
		var pairs [][2]int32
		for range rng.Intn(4 * ids) {
			id := rng.Intn(used)
			if rng.Intn(3) == 0 {
				id = id / 16 * 16 // a few long lists among many short ones
			}
			pairs = append(pairs, [2]int32{int32(id), rng.Int31()})
		}
		var want Lists[int32]
		for _, p := range pairs {
			want.Append(int(p[0]), p[1])
		}
		got := group(ids, pairs)
		sameLists(t, fmt.Sprint("trial ", trial), &got, &want, ids)
	}
}

// TestGrouperListsClipped checks that the lists a grouper builds are windows
// with no room: an Append to one list, on the lists built or on a clone of
// them, never shows in the next one or on the other side of the Clone.
func TestGrouperListsClipped(t *testing.T) {
	const ids = 2*pageSize + 5
	var pairs [][2]int32
	for i := range 10 * ids {
		pairs = append(pairs, [2]int32{int32(i * 7 % ids), int32(i)})
	}
	built := group(ids, pairs)
	model := group(ids, pairs)
	appendAll := func(l *Lists[int32]) {
		for id := range ids {
			l.Append(id, -int32(id)-1)
		}
	}
	appended := func() Lists[int32] {
		m := group(ids, pairs)
		var l Lists[int32]
		for id := range ids {
			l.Set(id, append(slices.Clone(m.At(id)), -int32(id)-1))
		}
		return l
	}()

	c := built.Clone()
	appendAll(&c)
	sameLists(t, "the clone after appending to every list", &c, &appended, ids)
	sameLists(t, "the receiver after its clone appended", &built, &model, ids)
	appendAll(&built)
	sameLists(t, "the receiver after appending to every list", &built, &appended, ids)
	sameLists(t, "the clone after the receiver appended", &c, &appended, ids)
}

// TestWatermarkConcurrentCatchUp races eight readers to the first CatchUp of
// one count: the catch-up runs once, from 0, and every reader returns with
// the index built. A later count catches up from the one before, and Reset
// makes the next CatchUp start over from the count it sets.
func TestWatermarkConcurrentCatchUp(t *testing.T) {
	var w Watermark
	var built []int // what add was called with; the index the readers read
	var arrived atomic.Int32
	add := func(from, to int) {
		// Hold the first build until every reader has come to CatchUp, so
		// the others find the count stale and queue on the lock.
		for arrived.Load() < 8 {
			runtime.Gosched()
		}
		for range 100 {
			runtime.Gosched()
		}
		built = append(built, from, to)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			arrived.Add(1)
			w.CatchUp(100, add)
			if !slices.Equal(built, []int{0, 100}) || w.Load() != 100 {
				t.Errorf("reader %d returned with add calls %v, watermark %d", r, built, w.Load())
			}
		}()
	}
	close(start)
	wg.Wait()

	w.CatchUp(100, add)
	w.CatchUp(130, add)
	w.Reset(20)
	w.CatchUp(25, add)
	if want := []int{0, 100, 100, 130, 20, 25}; !slices.Equal(built, want) || w.Load() != 25 {
		t.Fatalf("add calls %v, watermark %d; want %v, 25", built, w.Load(), want)
	}
}
