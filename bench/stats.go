package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle value of xs (the mean of the two middle values for
// an even count). It returns 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile: the smallest sample with at
// least q percent of the samples at or below it. q is in (0, 100].
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1]
}

// tailCandidates are the upper percentiles a row may report, highest first.
var tailCandidates = []float64{99, 95, 90, 75}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it, so the reported tail is never decided by a
// handful of outliers. With fewer than 40 samples none qualifies and the
// row falls back to the median (q = 50).
func tailPercentile(n int) float64 {
	for _, q := range tailCandidates {
		if samplesBeyond(n, q) >= 10 {
			return q
		}
	}
	return 50
}

// samplesBeyond counts the samples strictly above the nearest-rank
// percentile position.
func samplesBeyond(n int, q float64) int {
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

// series is one named set of latency samples (milliseconds) of a workload.
type series struct {
	Name    string
	Samples []float64
}

// seriesSummary is what a report row carries for a series.
type seriesSummary struct {
	Name  string  `json:"name"`
	N     int     `json:"n"`
	P50   float64 `json:"p50_ms"`
	TailQ float64 `json:"tail_percentile"`
	Tail  float64 `json:"tail_ms"`
}

func (s *series) add(ms float64) { s.Samples = append(s.Samples, ms) }

// summary reports the median and the highest percentile the sample count
// supports (tailPercentile).
func (s *series) summary() seriesSummary { return s.summaryAt(tailPercentile(len(s.Samples))) }

// summaryAt reports the median and the q-th percentile. A workload's
// primary series uses a percentile frozen in its sizes rather than the
// adaptive one: a change that makes the workload faster raises the sample
// count, and a tail that then silently moved from p75 to p90 would read as
// a regression. With fewer than ten samples beyond q the tail falls back
// to the median (TailQ says so).
func (s *series) summaryAt(q float64) seriesSummary {
	sum := seriesSummary{Name: s.Name, N: len(s.Samples), P50: median(s.Samples), TailQ: 50}
	sum.Tail = sum.P50
	if q > 50 && samplesBeyond(sum.N, q) >= 10 {
		sum.TailQ, sum.Tail = q, percentile(s.Samples, q)
	}
	return sum
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median — the steadiness measure the A/A check and the
// driver both use. It needs at least two samples.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	// The exclusive method of Python's statistics.quantiles(xs, n=4).
	s := sorted(xs)
	quant := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quant(3) - quant(1)) / math.Abs(m)
}
