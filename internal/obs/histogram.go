package obs

import (
	"math"
	"strconv"
	"sync/atomic"
	"time"
)

// Histogram bucket layout, shared by every histogram in the process: fixed
// exponential upper bounds base·2^i, i ∈ [0, histNumBuckets), plus an
// overflow (+Inf) bucket. With base 1µs and 36 doublings the last finite
// bound is ≈9.5 hours — wide enough for request latencies and whole-job run
// times alike, while a shared layout keeps Prometheus exposition and
// cross-metric comparison trivial.
const (
	histNumBuckets = 36
	histBase       = 1e-6 // upper bound of the first bucket, in seconds
)

// histBound returns the upper bound of finite bucket i.
func histBound(i int) float64 { return math.Ldexp(histBase, i) }

// bucketIndex returns the index of the smallest bucket whose upper bound is
// ≥ v (histNumBuckets for the overflow bucket).
func bucketIndex(v float64) int {
	if v <= histBase {
		return 0
	}
	r := v / histBase
	i := math.Ilogb(r) // floor(log2 r)
	if math.Ldexp(1, i) < r {
		i++ // ceil
	}
	if i >= histNumBuckets {
		return histNumBuckets
	}
	return i
}

// Histogram is a lock-free latency/size distribution: observations land in
// fixed exponential buckets with single atomic adds, so an always-on
// histogram on a request hot path costs two atomic operations plus a CAS
// loop for the running sum. Like every obs instrument it is nil-receiver
// safe: a nil *Histogram ignores observations and snapshots to zero.
//
// Values are dimensionless float64s; by convention the pipeline records
// seconds (name the metric *.seconds) so Prometheus exposition needs no unit
// conversion.
type Histogram struct {
	buckets [histNumBuckets + 1]atomic.Int64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

// Observe records one value. NaN is ignored; negative values clamp to the
// first bucket. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds. Safe on a nil receiver.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveSince records the seconds elapsed since start. Safe on a nil
// receiver.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// HistogramBucket is one cumulative bucket of a snapshot. LE is the upper
// bound rendered exactly as Prometheus exposition expects ("+Inf" for the
// overflow bucket), which also keeps the JSON form infinity-free.
type HistogramBucket struct {
	LE    string `json:"le"`
	Count int64  `json:"count"` // cumulative: observations ≤ LE
}

// HistogramSnapshot is the exported point-in-time state of a histogram:
// totals, estimated quantiles, and the non-empty cumulative buckets.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     float64           `json:"sum"`
	P50     float64           `json:"p50"`
	P95     float64           `json:"p95"`
	P99     float64           `json:"p99"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// formatBound renders a bucket bound the way Prometheus clients do:
// shortest float representation that round-trips.
func formatBound(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Snapshot captures the histogram's current state (zero snapshot for nil).
// Concurrent observations may land between bucket reads; every bucket is
// monotone, so the snapshot is at worst a few observations behind, never
// inconsistent with itself beyond that skew.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	var counts [histNumBuckets + 1]int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		s.Count += counts[i]
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
	if s.Count == 0 {
		return s
	}
	s.P50 = quantile(&counts, s.Count, 0.50)
	s.P95 = quantile(&counts, s.Count, 0.95)
	s.P99 = quantile(&counts, s.Count, 0.99)
	cum := int64(0)
	for i, c := range counts {
		cum += c
		if c == 0 && i != histNumBuckets {
			continue // keep the exposition compact: skip empty finite buckets
		}
		le := "+Inf"
		if i < histNumBuckets {
			le = formatBound(histBound(i))
		}
		s.Buckets = append(s.Buckets, HistogramBucket{LE: le, Count: cum})
	}
	return s
}

// quantile estimates the q-quantile from per-bucket counts by linear
// interpolation inside the containing bucket (the standard
// histogram_quantile estimate). Observations in the overflow bucket report
// the last finite bound — a floor, not an invention.
func quantile(counts *[histNumBuckets + 1]int64, total int64, q float64) float64 {
	rank := q * float64(total)
	cum := int64(0)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == histNumBuckets {
			return histBound(histNumBuckets - 1)
		}
		lower := 0.0
		if i > 0 {
			lower = histBound(i - 1)
		}
		upper := histBound(i)
		return lower + (upper-lower)*(rank-float64(prev))/float64(c)
	}
	return histBound(histNumBuckets - 1)
}
