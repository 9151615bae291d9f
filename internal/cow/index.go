package cow

import (
	"sync"
	"sync/atomic"
)

// Watermark is how far an index derived from an append-only log (a graph's
// posting lists, a store's adjacency or iri index) has caught up with it: the
// number of log elements the index holds. The log's writer does not maintain
// the index; readers call CatchUp before they read it, concurrently if nobody
// writes the log (DESIGN.md §9). The zero Watermark is at 0. It must not be
// copied: a clone of the indexed container starts at the receiver's count by
// Reset.
type Watermark struct {
	n  atomic.Int64
	mu sync.Mutex // serializes concurrent first readers
}

// Load returns the number of log elements the index holds.
func (w *Watermark) Load() int { return int(w.n.Load()) }

// CatchUp brings the index up to the first n elements of the log. When it is
// not there already, CatchUp takes the lock and, unless another reader caught
// up meanwhile, calls add(from, n) with the count the index held, then
// publishes n. add runs under the lock, so it must not call CatchUp on w. The
// check without the lock inlines into the caller.
func (w *Watermark) CatchUp(n int, add func(from, to int)) {
	if w.n.Load() != int64(n) {
		w.catchUp(n, add)
	}
}

func (w *Watermark) catchUp(n int, add func(from, to int)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if from := w.n.Load(); from != int64(n) {
		add(int(from), n)
		w.n.Store(int64(n))
	}
}

// Reset sets the count, for the log's writer after it dropped the index
// (n = 0) or rolled it back to n elements. Like any mutation it must not run
// concurrently with CatchUp.
func (w *Watermark) Reset(n int) { w.n.Store(int64(n)) }

// Grouper builds Lists from empty by counting sort: Count every element's list
// id, Sum, then Place every element in the order its list is to hold it. The
// lists are windows of one array, each with its capacity clipped, so an Append
// to one list never writes into the next. Count and Place inline, so the loop
// over the elements stays in the caller.
type Grouper[E any] struct {
	next []uint32 // counts at id+1; after Sum, where id's next element goes
	slab []E
}

// NewGrouper returns a grouper for list ids below ids.
func NewGrouper[E any](ids int) Grouper[E] { return Grouper[E]{next: make([]uint32, ids+1)} }

// Count counts one element of list id.
func (g *Grouper[E]) Count(id int) { g.next[id+1]++ }

// Sum ends the counting: each list starts where the ones below it end.
func (g *Grouper[E]) Sum() {
	for id := 1; id < len(g.next); id++ {
		g.next[id] += g.next[id-1]
	}
	g.slab = make([]E, g.next[len(g.next)-1])
}

// Place puts e after the elements placed in list id so far.
func (g *Grouper[E]) Place(id int, e E) {
	g.slab[g.next[id]] = e
	g.next[id]++
}

// Lists returns the placed lists. next[id] is now where list id ends and
// list id+1 begins.
func (g *Grouper[E]) Lists() (l Lists[E]) {
	lo := uint32(0)
	for id, hi := range g.next[:len(g.next)-1] {
		if hi > lo {
			l.Set(id, g.slab[lo:hi:hi])
		}
		lo = hi
	}
	return l
}
