package qexec

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

func newExec(t *testing.T, ctx context.Context) *Exec {
	t.Helper()
	x, err := New(ctx, "test")
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func pairs(vals ...int) *Table[int] {
	t := &Table[int]{Stride: 2}
	for i, v := range vals {
		t.Append([]int{v, i}) // the second column remembers the input position
	}
	return t
}

func TestTableSliceAndZeroWidthRows(t *testing.T) {
	tb := pairs(5, 6, 7, 8)
	tb.Slice(1, 2)
	if tb.N != 2 || !reflect.DeepEqual(tb.Data, []int{6, 1, 7, 2}) {
		t.Fatalf("Slice(1,2) = %+v", tb)
	}
	tb.Slice(5, -1)
	if tb.N != 0 || len(tb.Data) != 0 {
		t.Fatalf("Slice past the end = %+v", tb)
	}
	// Rows without columns still count.
	var empty Table[int]
	empty.Append(nil)
	empty.Append(nil)
	empty.Slice(1, -1)
	if empty.N != 1 || len(empty.Row(0)) != 0 {
		t.Fatalf("zero-width table = %+v", empty)
	}
}

func TestFilterMapDistinct(t *testing.T) {
	x := newExec(t, nil)
	in := pairs(3, 1, 3, 2, 1)
	var out Table[int]
	out.Reset(2)
	err := Filter(x, in, &out, 3, func(row []int) (bool, error) { return row[0] != 2, nil })
	if err != nil || !reflect.DeepEqual(out.Data, []int{3, 0, 1, 1, 3, 2}) {
		t.Fatalf("Filter stopped at 3 rows = %v, %v", out.Data, err)
	}
	strs := Table[string]{Stride: 1}
	err = Map(x, in, &strs, func(dst []string, row []int) error {
		dst[0] = string(rune('a' + row[0]))
		return nil
	})
	if err != nil || !reflect.DeepEqual(strs.Data, []string{"d", "b", "d", "c", "b"}) {
		t.Fatalf("Map = %v, %v", strs.Data, err)
	}
	err = Distinct(x, in, func(dst []byte, row []int) []byte { return append(dst, byte(row[0])) })
	if err != nil || !reflect.DeepEqual(in.Data, []int{3, 0, 1, 1, 2, 3}) {
		t.Fatalf("Distinct = %v, %v", in.Data, err)
	}
	if x.steps != 3+5+5 {
		t.Fatalf("a filter cut at three rows and two passes over five took %d steps", x.steps)
	}
}

// TestOrderBoundedEqualsStableSort holds the bounded selection to the full
// stable sort it stands in for: on random inputs full of ties, for every
// cut, the same rows in the same order.
func TestOrderBoundedEqualsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		n := rng.Intn(60)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = rng.Intn(8)
		}
		want := pairs(vals...)
		less := func(i, j int) bool { return vals[i] < vals[j] }
		if err := Order(newExec(t, nil), want, less, false, -1); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < want.N; i++ {
			a, b := want.Row(i-1), want.Row(i)
			if a[0] > b[0] || a[0] == b[0] && a[1] > b[1] {
				t.Fatalf("full sort is not stable at %d: %v", i, want.Data)
			}
		}
		for _, keep := range []int{0, 1, 2, n / 5, n / 4, n} {
			got := pairs(vals...)
			if err := Order(newExec(t, nil), got, less, true, keep); err != nil {
				t.Fatal(err)
			}
			if keep > n {
				keep = n
			}
			if got.N != keep || !reflect.DeepEqual(got.Data, want.Data[:2*keep]) {
				t.Fatalf("n=%d keep=%d: bounded %v, stable sort %v", n, keep, got.Data, want.Data[:2*keep])
			}
		}
	}
}

// countdown cancels at its nth poll.
type countdown struct {
	context.Context
	left int
}

func (c *countdown) Err() error {
	if c.left--; c.left <= 0 {
		return context.Canceled
	}
	return nil
}

func TestOrderIsInterruptible(t *testing.T) {
	vals := rand.New(rand.NewSource(2)).Perm(5000)
	for _, total := range []bool{false, true} {
		x := newExec(t, &countdown{Context: context.Background(), left: 3})
		err := Order(x, pairs(vals...), func(i, j int) bool { return vals[i] < vals[j] }, total, 10)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("total=%v: a sort cancelled at its second poll returned %v", total, err)
		}
		if x.steps > 3*256 {
			t.Fatalf("total=%v: the sort kept comparing after the cancellation: %d steps", total, x.steps)
		}
	}
	if _, err := New(&countdown{Context: context.Background()}, "test"); !errors.Is(err, context.Canceled) {
		t.Fatalf("New on a done context: %v", err)
	}
}
