// Package stats implements the statistical substrate of the FRaC
// reproduction: descriptive statistics, Gaussian models, Shannon and
// differential entropy, Gaussian kernel density estimation, confusion
// matrices, ROC/AUC evaluation, rank statistics, and the hypergeometric tail
// probability the paper uses in its schizophrenia analysis.
package stats

import "math"

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// MeanVar returns the mean and the unbiased (n-1) sample variance. For n < 2
// the variance is 0.
func MeanVar(xs []float64) (mean, variance float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	mean = Mean(xs)
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, v := range xs {
		d := v - mean
		ss += d * d
	}
	return mean, ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 {
	_, v := MeanVar(xs)
	return math.Sqrt(v)
}

// MinMax returns the extrema of xs. It panics on empty input.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Welford accumulates mean and variance in a single streaming pass, which the
// experiment harness uses to aggregate per-replicate AUCs without retaining
// them.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N reports the number of observations.
func (w *Welford) N() int { return w.n }

// Mean reports the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance reports the unbiased running variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev reports the unbiased running standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }
