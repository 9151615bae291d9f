// Package cow holds the copy-on-write containers behind rdf.Graph.Clone and
// pg.Store.Clone: an id-indexed paged Table (and its slice-valued form,
// Lists) and a Map without deletion. A Clone of either costs a page-table or
// overlay copy, never a walk of the elements; afterwards either side may be
// mutated and the other never observes it. Watermark and Grouper build the
// indexes derived from such containers on first read. Sharing rules and that
// mechanism are in DESIGN.md §9.
//
// Clone writes to its receiver (it revokes the receiver's right to write
// shared pages in place), so it counts as a mutation for concurrency:
// it must not run concurrently with any other method of the same container.
// Readers of a clone nobody mutates need no synchronization.
package cow

import "github.com/s3pg/s3pg/internal/obs"

// cMapFolds counts Map.Clone calls that folded the overlay into a new shared
// base: the one step of a Clone that can walk a whole map, so the one worth
// seeing.
var cMapFolds = obs.Default.Counter("cow.map.folds")

const (
	// pageBits sizes a Table page: 128 elements. A mutation after a Clone
	// copies one page per touched id, a Clone copies one pointer per page.
	pageBits = 7
	pageSize = 1 << pageBits
	pageMask = pageSize - 1

	// foldDen bounds a Map's private overlay at 1/foldDen of its shared
	// base. While the overlay is smaller, Clone copies it; once it is not,
	// Clone folds base and overlay into a new base. A Clone therefore copies
	// at most len(base)/foldDen entries, and the folds cost about foldDen map
	// inserts per Put, amortised. It is a constant, not a setting: the copy
	// and the fold trade against each other, and anywhere in 4..16 the sum
	// moves a live update by microseconds.
	foldDen = 8
)

// token is an identity: two *token are equal only when they are the same
// allocation (the byte keeps allocations distinct).
type token struct{ _ byte }

type page[T any] struct {
	own  *token // the table epoch that may write this page in place
	line *token // the lineage that made it; see Lists
	v    [pageSize]T
}

// Table is a dense array indexed by a small integer id, stored in pages so
// that a Clone shares every page and a later write copies only the page it
// touches. The zero Table is empty and ready to use.
type Table[T any] struct {
	pages []*page[T]
	n     int
	own   *token // pages stamped with it are private to this table
	line  *token // kept across Clone by the receiver, fresh in the clone
}

// Len returns one more than the largest id ever written.
func (t *Table[T]) Len() int { return t.n }

// At returns element i, or the zero value when i was never written.
func (t *Table[T]) At(i int) T {
	if uint(i) < uint(t.n) {
		if p := t.pages[i>>pageBits]; p != nil {
			return p.v[i&pageMask]
		}
	}
	var zero T
	return zero
}

// Edit returns element i for writing in place, growing the table to include
// it. When that copies a page a clone shares, shared (unless nil) is first
// called on every element of the copy: it is where an element that points to
// memory it writes (a slice it appends to, say) gives up that right, because
// the page left behind still points there too.
func (t *Table[T]) Edit(i int, shared func(*T)) *T {
	p, copied, _ := t.writable(i)
	if copied && shared != nil {
		for j := range p.v {
			shared(&p.v[j])
		}
	}
	return &p.v[i&pageMask]
}

// Private reports whether element i is on a page private to t: one Edit
// writes in place, copying nothing.
func (t *Table[T]) Private(i int) bool {
	pi := i >> pageBits
	return pi < len(t.pages) && t.pages[pi] != nil && t.pages[pi].own == t.own
}

// writable returns the page holding element i, private to t: grown or
// allocated when absent, copied when it is shared with a clone. foreign
// reports a copy of a page another lineage made.
func (t *Table[T]) writable(i int) (p *page[T], copied, foreign bool) {
	pi := i >> pageBits
	for pi >= len(t.pages) {
		t.pages = append(t.pages, nil)
	}
	if i >= t.n {
		t.n = i + 1
	}
	p = t.pages[pi]
	switch {
	case p == nil:
		p = &page[T]{own: t.own, line: t.line}
		t.pages[pi] = p
	case p.own != t.own:
		copied, foreign = true, p.line != t.line
		p = &page[T]{own: t.own, line: t.line, v: p.v}
		t.pages[pi] = p
	}
	return p, copied, foreign
}

// Clone returns a table with the same elements, sharing every page. Both
// sides copy a page before their first write to it.
func (t *Table[T]) Clone() Table[T] {
	t.own = new(token)
	return Table[T]{
		pages: append([]*page[T](nil), t.pages...),
		n:     t.n,
		own:   new(token),
		line:  new(token),
	}
}

// Lists is a Table of append-only slices (posting and adjacency lists).
// The backing arrays are shared across Clone too. Spare capacity of an array
// belongs to the lineage that made the page holding its header — the table
// Clone was called on, not the clone — so the receiver of Clone keeps
// appending in place (into slots past every clone's length, which no clone
// reads) while a clone's first append to a list reallocates it.
type Lists[E any] struct{ t Table[[]E] }

// Len returns one more than the largest id ever appended to.
func (l *Lists[E]) Len() int { return l.t.n }

// At returns list i (nil when empty). The caller must not modify it.
func (l *Lists[E]) At(i int) []E { return l.t.At(i) }

// Next returns the smallest id >= i whose list is non-empty, or -1. Pages
// never written are skipped whole, so a walk of the non-empty lists costs
// what they hold plus a pointer check per page below Len.
func (l *Lists[E]) Next(i int) int {
	for ; i < l.t.n; i++ {
		p := l.t.pages[i>>pageBits]
		if p == nil {
			i |= pageMask
		} else if len(p.v[i&pageMask]) > 0 {
			return i
		}
	}
	return -1
}

// Append adds e to the end of list i.
func (l *Lists[E]) Append(i int, e E) {
	s := l.slot(i)
	*s = append(*s, e)
}

// Pop removes the last element of list i. The list gives up its spare
// capacity: the slot it vacates may still be visible to a clone, so the
// next Append must not reuse it.
func (l *Lists[E]) Pop(i int) {
	s := l.slot(i)
	n := len(*s) - 1
	*s = (*s)[:n:n]
}

// Set replaces list i with list. The caller hands the slice over: nobody
// else may append into its spare capacity afterwards.
func (l *Lists[E]) Set(i int, list []E) { *l.slot(i) = list }

func (l *Lists[E]) slot(i int) *[]E {
	p, _, foreign := l.t.writable(i)
	if foreign {
		for j, s := range p.v {
			p.v[j] = s[:len(s):len(s)]
		}
	}
	return &p.v[i&pageMask]
}

// Clone returns lists with the same contents, sharing pages and arrays.
func (l *Lists[E]) Clone() Lists[E] { return Lists[E]{t: l.t.Clone()} }

// Map is a hash map without deletion: an immutable base shared between clones
// plus a private overlay holding the keys put since, which wins over the
// base for a key put again. The zero Map is empty and ready to use; until its
// first Clone it is a plain Go map.
type Map[K comparable, V any] struct {
	base map[K]V // shared; never written once a clone holds it
	over map[K]V // private
}

// Get returns the value stored for k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	if v, ok := m.over[k]; ok || m.base == nil {
		return v, ok
	}
	v, ok := m.base[k]
	return v, ok
}

// Put stores v for k, replacing the value a key already in the map had.
func (m *Map[K, V]) Put(k K, v V) {
	if m.over == nil {
		m.over = make(map[K]V)
	}
	m.over[k] = v
}

// Range calls fn for every entry, in no particular order, until fn returns
// false. fn must not write to the map.
func (m *Map[K, V]) Range(fn func(K, V) bool) {
	for k, v := range m.over {
		if !fn(k, v) {
			return
		}
	}
	for k, v := range m.base {
		if _, replaced := m.over[k]; !replaced && !fn(k, v) {
			return
		}
	}
}

// GetOrPut returns the value stored for k, storing v first when there is
// none; present reports which. It is Get then Put: the built-in map the
// overlay is made of has no insert-if-absent, so a miss still probes twice.
func (m *Map[K, V]) GetOrPut(k K, v V) (got V, present bool) {
	if got, present = m.Get(k); !present {
		m.Put(k, v)
		got = v
	}
	return got, present
}

// Clone returns a map with the same entries. It copies the overlay, or —
// once the overlay has outgrown 1/foldDen of the base — folds it into a new
// base both sides share.
func (m *Map[K, V]) Clone() Map[K, V] {
	switch {
	case len(m.over) == 0:
	case len(m.over)*foldDen <= len(m.base):
		over := make(map[K]V, len(m.over))
		for k, v := range m.over {
			over[k] = v
		}
		return Map[K, V]{base: m.base, over: over}
	case len(m.over) >= len(m.base):
		// The overlay is private, so the smaller base is merged into it and
		// it becomes the base (O(1) for a map that was never cloned).
		for k, v := range m.base {
			if _, replaced := m.over[k]; !replaced {
				m.over[k] = v
			}
		}
		m.base, m.over = m.over, nil
		cMapFolds.Inc()
	default:
		merged := make(map[K]V, len(m.base)+len(m.over))
		for k, v := range m.base {
			merged[k] = v
		}
		for k, v := range m.over {
			merged[k] = v
		}
		m.base, m.over = merged, nil
		cMapFolds.Inc()
	}
	return Map[K, V]{base: m.base}
}
