package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile.
const minBeyond = 10

// tailRank returns the 1-based rank of the highest nearest-rank percentile,
// capped at p99, that has at least minBeyond of n samples beyond it, and
// that percentile. ok is false when n is too small for any tail above the
// median.
func tailRank(n int) (k int, p float64, ok bool) {
	if n <= 2*minBeyond {
		return 0, 0, false
	}
	k = min(n-minBeyond, (99*n+99)/100) // ceil(0.99 n)
	return k, 100 * float64(k) / float64(n), true
}

// quantile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted; +Inf entries stand for requests that failed.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p / 100 * float64(len(sorted))))
	k = min(max(k, 1), len(sorted))
	return sorted[k-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// latencySummary is the median and the supported tail of one set of
// latencies, with the sample count.
type latencySummary struct {
	n         int
	p50, tail float64 // ms
	tailP     float64 // the percentile tail reports
	beyond    int     // samples above the tail
}

func (s latencySummary) String() string {
	return fmt.Sprintf("n=%d p50=%.3fms p%.1f=%.3fms (%d beyond)", s.n, s.p50, s.tailP, s.tail, s.beyond)
}

// summarize sorts latencies (ms, +Inf for a failed request) and reports the
// median and the highest percentile with at least minBeyond samples beyond
// it.
func summarize(latMs []float64) (latencySummary, error) {
	s := append([]float64(nil), latMs...)
	sort.Float64s(s)
	k, p, ok := tailRank(len(s))
	if !ok {
		return latencySummary{}, fmt.Errorf("%d latency samples cannot support a tail percentile", len(s))
	}
	return latencySummary{n: len(s), p50: quantile(s, 50), tail: s[k-1], tailP: p, beyond: len(s) - k}, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
