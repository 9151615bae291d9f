// Package qexec is the execution layer under both query engines: fixed-width
// slot rows in flat tables, the cooperative cancellation tick, and the tail
// every query shares — filter, projection, DISTINCT, ORDER BY, OFFSET/LIMIT.
// What a slot means belongs to the language (a dictionary id for SPARQL; a
// tagged node, edge or value-table index for Cypher's match rows and a
// pg.Value for its projected rows), and so do the leaves that produce rows.
//
// Extending a binding is an append of Stride elements to a table's backing
// array, never an allocation per row, and a table belongs to the operator
// that fills it: an operator may read its input for as long as it runs and
// must not write to it.
package qexec

import (
	"context"
	"fmt"
	"sort"
)

// Exec carries one evaluation's cancellation state. It is not safe for
// concurrent use; an evaluation runs on one goroutine.
type Exec struct {
	ctx   context.Context
	lang  string
	steps int
}

// New starts an evaluation for the named engine ("sparql", "cypher": the
// prefix of its cancellation errors). A nil ctx disables cancellation; one
// that is already done fails here.
func New(ctx context.Context, lang string) (*Exec, error) {
	x := &Exec{ctx: ctx, lang: lang}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, x.canceled(err)
		}
	}
	return x, nil
}

func (x *Exec) canceled(err error) error {
	return fmt.Errorf("%s: query canceled: %w", x.lang, err)
}

// Tick is the cooperative cancellation point, amortized so the common case
// is one increment and a mask test. Every operator calls it once per row it
// reads and once per candidate a leaf visits.
func (x *Exec) Tick() error {
	x.steps++
	if x.steps&255 == 0 && x.ctx != nil {
		if err := x.ctx.Err(); err != nil {
			return x.canceled(err)
		}
	}
	return nil
}

// Table is a sequence of N rows of Stride elements in one backing array.
// N is kept apart from len(Data) because a row may be zero elements wide.
type Table[T any] struct {
	Stride int
	N      int
	Data   []T
}

// Reset empties the table for rows of the given width, keeping its array.
func (t *Table[T]) Reset(stride int) {
	t.Stride, t.N, t.Data = stride, 0, t.Data[:0]
}

// Row returns row i, aliasing the backing array.
func (t *Table[T]) Row(i int) []T {
	return t.Data[i*t.Stride : (i+1)*t.Stride : (i+1)*t.Stride]
}

// Append copies one row (of Stride elements) onto the end.
func (t *Table[T]) Append(row []T) {
	t.Data = append(t.Data, row...)
	t.N++
}

// AppendTable copies up to max rows of src onto the end (max <= 0: all).
func (t *Table[T]) AppendTable(src *Table[T], max int) {
	n := src.N
	if max > 0 && n > max {
		n = max
	}
	t.Data = append(t.Data, src.Data[:n*src.Stride]...)
	t.N += n
}

// Slice keeps rows [offset, offset+limit) (limit < 0: to the end).
func (t *Table[T]) Slice(offset, limit int) {
	if offset > t.N {
		offset = t.N
	}
	end := t.N
	if limit >= 0 && offset+limit < end {
		end = offset + limit
	}
	t.Data = t.Data[offset*t.Stride : end*t.Stride]
	t.N = end - offset
}

// Filter appends to out the rows of in that keep accepts, in order, and
// stops once out holds limit rows (limit <= 0: no bound).
func Filter[T any](x *Exec, in, out *Table[T], limit int, keep func(row []T) (bool, error)) error {
	for i := 0; i < in.N; i++ {
		if err := x.Tick(); err != nil {
			return err
		}
		row := in.Row(i)
		ok, err := keep(row)
		if err != nil {
			return err
		}
		if ok {
			out.Append(row)
			if out.N == limit {
				return nil
			}
		}
	}
	return nil
}

// Map appends one row to out for every row of in: fn fills dst, the new
// row of out.Stride elements.
func Map[T, U any](x *Exec, in *Table[T], out *Table[U], fn func(dst []U, row []T) error) error {
	var zero U
	for i := 0; i < in.N; i++ {
		if err := x.Tick(); err != nil {
			return err
		}
		for k := 0; k < out.Stride; k++ {
			out.Data = append(out.Data, zero)
		}
		out.N++
		if err := fn(out.Row(out.N-1), in.Row(i)); err != nil {
			return err
		}
	}
	return nil
}

// Distinct keeps the first row of every group of rows with equal keys, in
// place. key appends the row's key to dst.
func Distinct[T any](x *Exec, t *Table[T], key func(dst []byte, row []T) []byte) error {
	seen := make(map[string]struct{}, t.N)
	var buf []byte
	kept := 0
	for i := 0; i < t.N; i++ {
		if err := x.Tick(); err != nil {
			return err
		}
		row := t.Row(i)
		buf = key(buf[:0], row)
		if _, dup := seen[string(buf)]; dup {
			continue
		}
		seen[string(buf)] = struct{}{}
		copy(t.Data[kept*t.Stride:], row)
		kept++
	}
	t.Data, t.N = t.Data[:kept*t.Stride], kept
	return nil
}

// Order stably sorts the table by less, which compares two rows by their
// index before the sort (the caller extracts each row's sort key once and
// closes over the keys). Only the first keep rows of the result are needed
// (keep < 0: all) and the table is cut to them. total promises that less is
// a strict weak order; then a bounded selection yields the same rows as the
// full stable sort and replaces it when keep is small.
func Order[T any](x *Exec, t *Table[T], less func(i, j int) bool, total bool, keep int) error {
	if keep < 0 || keep > t.N {
		keep = t.N
	}
	var err error // the first cancellation a comparison saw
	ticking := func(i, j int) bool {
		if err != nil {
			return false // cancelled: let the sort run out quickly
		}
		if err = x.Tick(); err != nil {
			return false
		}
		return less(i, j)
	}
	var perm []int32
	if total && keep < t.N/4 {
		perm = selectSmallest(t.N, keep, ticking)
	} else {
		perm = make([]int32, t.N)
		for i := range perm {
			perm[i] = int32(i)
		}
		sort.Stable(permSorter{perm, ticking})
		perm = perm[:keep]
	}
	if err != nil {
		return err
	}
	data := make([]T, 0, keep*t.Stride)
	for _, i := range perm {
		data = append(data, t.Row(int(i))...)
	}
	t.Data, t.N = data, keep
	return nil
}

type permSorter struct {
	perm []int32
	less func(i, j int) bool
}

func (s permSorter) Len() int           { return len(s.perm) }
func (s permSorter) Less(a, b int) bool { return s.less(int(s.perm[a]), int(s.perm[b])) }
func (s permSorter) Swap(a, b int)      { s.perm[a], s.perm[b] = s.perm[b], s.perm[a] }

// selectSmallest returns, in order, the k first rows of the stable sort of
// [0,n) under less. Ties break by index, which is what stability means, so
// the comparison is a total order and a max-heap of the k best so far is
// enough.
func selectSmallest(n, k int, less func(i, j int) bool) []int32 {
	if k == 0 {
		return nil
	}
	before := func(i, j int32) bool {
		if less(int(i), int(j)) {
			return true
		}
		if less(int(j), int(i)) {
			return false
		}
		return i < j
	}
	heap := make([]int32, 0, k) // heap[0] is the last of the k best
	down := func(at int) {
		for {
			big := at
			for c := 2*at + 1; c <= 2*at+2 && c < len(heap); c++ {
				if before(heap[big], heap[c]) {
					big = c
				}
			}
			if big == at {
				return
			}
			heap[at], heap[big] = heap[big], heap[at]
			at = big
		}
	}
	for i := int32(0); int(i) < n; i++ {
		switch {
		case len(heap) < k:
			heap = append(heap, i)
			for at := len(heap) - 1; at > 0; {
				up := (at - 1) / 2
				if !before(heap[up], heap[at]) {
					break
				}
				heap[up], heap[at] = heap[at], heap[up]
				at = up
			}
		case before(i, heap[0]):
			heap[0] = i
			down(0)
		}
	}
	sort.Slice(heap, func(a, b int) bool { return before(heap[a], heap[b]) })
	return heap
}
