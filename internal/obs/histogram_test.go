package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	h.ObserveSince(time.Now())
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || len(s.Buckets) != 0 {
		t.Fatalf("nil histogram snapshot: %+v", s)
	}
}

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-5, 0}, // clamped by Observe; index itself also lands at 0
		{1e-6, 0},
		{1.000001e-6, 1},
		{2e-6, 1},
		{4e-6, 2},
		{3e-6, 2},
		{histBound(histNumBuckets - 1), histNumBuckets - 1},
		{histBound(histNumBuckets-1) * 2, histNumBuckets},
		{1e12, histNumBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every finite bucket's own upper bound must land in that bucket.
	for i := 0; i < histNumBuckets; i++ {
		if got := bucketIndex(histBound(i)); got != i {
			t.Errorf("bucketIndex(histBound(%d)) = %d", i, got)
		}
	}
}

func TestHistogramObserveAndQuantiles(t *testing.T) {
	h := &Histogram{}
	// 1000 observations spread over 1ms..2ms: quantiles must land inside the
	// covering buckets (1.024ms and 2.048ms bounds).
	for i := 0; i < 1000; i++ {
		h.Observe(0.001 + float64(i)*0.000001)
	}
	h.Observe(math.NaN()) // ignored
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count %d, want 1000", s.Count)
	}
	if s.Sum < 1.0 || s.Sum > 3.0 {
		t.Fatalf("sum %g out of range", s.Sum)
	}
	for _, q := range []struct {
		name string
		v    float64
	}{{"p50", s.P50}, {"p95", s.P95}, {"p99", s.P99}} {
		if q.v < 0.0005 || q.v > 0.0025 {
			t.Errorf("%s = %g, outside the covering buckets", q.name, q.v)
		}
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Errorf("quantiles not ordered: p50=%g p95=%g p99=%g", s.P50, s.P95, s.P99)
	}
	// Buckets are cumulative and end at +Inf == Count.
	last := int64(-1)
	for _, b := range s.Buckets {
		if b.Count < last {
			t.Errorf("bucket %s not cumulative: %d < %d", b.LE, b.Count, last)
		}
		last = b.Count
	}
	if n := len(s.Buckets); n == 0 || s.Buckets[n-1].Count != s.Count {
		t.Fatalf("last bucket %v, want cumulative count %d", s.Buckets, s.Count)
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := &Histogram{}
	h.Observe(1e9) // far beyond the last finite bound (~9.5h)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("count %d", s.Count)
	}
	if got := s.Buckets[len(s.Buckets)-1].LE; got != "+Inf" {
		t.Fatalf("overflow bucket le %q", got)
	}
	// The quantile estimate floors at the last finite bound rather than
	// inventing a value.
	if want := histBound(histNumBuckets - 1); s.P99 != want {
		t.Fatalf("overflow p99 %g, want %g", s.P99, want)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines; run
// under -race this is the lock-freedom proof, and the final snapshot must
// account for every observation.
func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g+1) * 1e-5)
				if i%100 == 0 {
					_ = h.Snapshot() // concurrent readers
				}
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if want := int64(goroutines * perG); s.Count != want {
		t.Fatalf("count %d, want %d", s.Count, want)
	}
	var wantSum float64
	for g := 0; g < goroutines; g++ {
		wantSum += float64(g+1) * 1e-5 * perG
	}
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Fatalf("sum %g, want %g", s.Sum, wantSum)
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("x.seconds")
	h2 := r.Histogram("x.seconds")
	if h1 != h2 {
		t.Fatal("same name yielded distinct histograms")
	}
	h1.Observe(0.5)
	snap := r.Snapshot()
	hs, ok := snap.Histograms["x.seconds"]
	if !ok || hs.Count != 1 {
		t.Fatalf("snapshot histograms: %+v", snap.Histograms)
	}
	var nilReg *Registry
	if nilReg.Histogram("y") != nil {
		t.Fatal("nil registry returned non-nil histogram")
	}
}
