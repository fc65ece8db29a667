package stats

import (
	"fmt"
	"math"
)

// Confusion is a k x k confusion matrix over class labels [0, k). It is the
// discrete error model of FRaC: built from (true, predicted) pairs collected
// on cross-validation holdouts, then queried for P(true | predicted) with
// Laplace smoothing so unseen combinations yield finite surprisal.
type Confusion struct {
	K      int
	Counts []int // row-major: Counts[true*K + pred]
	// Smoothing is the Laplace pseudo-count added per cell when computing
	// conditional probabilities. Zero or negative selects the default of 1.
	Smoothing float64
}

// NewConfusion returns an empty k-class confusion matrix.
func NewConfusion(k int) *Confusion {
	if k <= 0 {
		panic(fmt.Sprintf("stats: NewConfusion k=%d", k))
	}
	return &Confusion{K: k, Counts: make([]int, k*k)}
}

// Add records one (true, predicted) observation. Labels outside [0, K) panic:
// they indicate a schema violation upstream.
func (c *Confusion) Add(truth, pred int) {
	if truth < 0 || truth >= c.K || pred < 0 || pred >= c.K {
		panic(fmt.Sprintf("stats: Confusion.Add label out of range: true=%d pred=%d k=%d", truth, pred, c.K))
	}
	c.Counts[truth*c.K+pred]++
}

func (c *Confusion) smoothing() float64 {
	if c.Smoothing > 0 {
		return c.Smoothing
	}
	return 1
}

// ProbTrueGivenPred returns the smoothed estimate of P(true=t | pred=p):
// (count[t,p] + α) / (Σ_t' count[t',p] + αK).
func (c *Confusion) ProbTrueGivenPred(truth, pred int) float64 {
	alpha := c.smoothing()
	col := 0
	for t := 0; t < c.K; t++ {
		col += c.Counts[t*c.K+pred]
	}
	return (float64(c.Counts[truth*c.K+pred]) + alpha) / (float64(col) + alpha*float64(c.K))
}

// Surprisal returns -log P(true | pred) in nats, the discrete-case term of
// normalized surprisal before entropy normalization.
func (c *Confusion) Surprisal(truth, pred int) float64 {
	return -math.Log(c.ProbTrueGivenPred(truth, pred))
}
