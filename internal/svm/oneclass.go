package svm

import (
	"math"

	"frac/internal/linalg"
)

// OneClassParams configures the ν-one-class SVM (Schölkopf et al., paper
// ref 6), the prior-work baseline FRaC was originally compared against.
type OneClassParams struct {
	// Nu in (0, 1] bounds the fraction of training outliers / support
	// vectors. <= 0 selects 0.5.
	Nu float64
	// Kernel defaults to RBF with the median heuristic when nil.
	Kernel Kernel
	// MaxIter bounds SMO pair updates. <= 0 selects 10000.
	MaxIter int
	// Tol is the KKT violation tolerance. <= 0 selects 1e-4.
	Tol float64
}

func (p OneClassParams) withDefaults(x *linalg.Matrix) OneClassParams {
	if p.Nu <= 0 || p.Nu > 1 {
		p.Nu = 0.5
	}
	if p.Kernel == nil {
		p.Kernel = RBFKernel{Gamma: MedianGamma(x)}
	}
	if p.MaxIter <= 0 {
		p.MaxIter = 10000
	}
	if p.Tol <= 0 {
		p.Tol = 1e-4
	}
	return p
}

// OneClassSVM is a trained one-class model. Decision(x) >= 0 marks x as
// inside the learned support region; AnomalyScore returns the signed
// distance outside it (higher = more anomalous).
type OneClassSVM struct {
	kernel  Kernel
	support *linalg.Matrix // rows with alpha > 0
	alphas  []float64
	rho     float64
}

// TrainOneClass solves the ν-one-class dual
//
//	min ½ αᵀQα   s.t.  0 ≤ α_i ≤ 1/(νn),  Σα = 1
//
// by maximal-violating-pair SMO over the precomputed Gram matrix. The
// training sizes in this reproduction (tens to hundreds of samples) keep the
// Gram matrix small.
func TrainOneClass(x *linalg.Matrix, params OneClassParams) *OneClassSVM {
	p := params.withDefaults(x)
	n := x.Rows
	if n == 0 {
		panic("svm: TrainOneClass on empty training set")
	}
	upper := 1 / (p.Nu * float64(n))
	q := GramMatrix(p.Kernel, x)

	// Standard initialization: the first floor(νn) coefficients at the
	// upper bound, one fractional remainder, rest zero; Σα = 1 exactly.
	alpha := make([]float64, n)
	remaining := 1.0
	for i := 0; i < n && remaining > 0; i++ {
		a := math.Min(upper, remaining)
		alpha[i] = a
		remaining -= a
	}

	// grad = Qα
	grad := make([]float64, n)
	for i := 0; i < n; i++ {
		grad[i] = linalg.DotFast(q.Row(i), alpha) // fast tier: SMO tolerance-governed
	}

	for iter := 0; iter < p.MaxIter; iter++ {
		// Maximal violating pair: i maximizes -grad over α_i < U ("up"
		// direction), j minimizes -grad over α_j > 0 ("down" direction).
		i, j := -1, -1
		gMax, gMin := math.Inf(-1), math.Inf(1)
		for t := 0; t < n; t++ {
			if alpha[t] < upper-1e-15 && -grad[t] > gMax {
				gMax = -grad[t]
				i = t
			}
			if alpha[t] > 1e-15 && -grad[t] < gMin {
				gMin = -grad[t]
				j = t
			}
		}
		if i < 0 || j < 0 || gMax-gMin < p.Tol {
			break
		}
		// Analytic pair update preserving Σα: move δ from j to i.
		quad := q.At(i, i) + q.At(j, j) - 2*q.At(i, j)
		if quad <= 1e-15 {
			quad = 1e-15
		}
		delta := (grad[j] - grad[i]) / quad
		if delta <= 0 {
			break
		}
		delta = math.Min(delta, math.Min(upper-alpha[i], alpha[j]))
		if delta <= 0 {
			break
		}
		alpha[i] += delta
		alpha[j] -= delta
		for t := 0; t < n; t++ {
			grad[t] += delta * (q.At(i, t) - q.At(j, t))
		}
	}

	// rho = average decision value over free support vectors (0 < α < U);
	// fall back to all support vectors when none are strictly free.
	var rhoSum float64
	var rhoN int
	for t := 0; t < n; t++ {
		if alpha[t] > 1e-12 && alpha[t] < upper-1e-12 {
			rhoSum += grad[t]
			rhoN++
		}
	}
	if rhoN == 0 {
		for t := 0; t < n; t++ {
			if alpha[t] > 1e-12 {
				rhoSum += grad[t]
				rhoN++
			}
		}
	}
	rho := rhoSum / float64(max(rhoN, 1))

	// Compact to support vectors.
	var rows []int
	for t := 0; t < n; t++ {
		if alpha[t] > 1e-12 {
			rows = append(rows, t)
		}
	}
	sv := linalg.NewMatrix(len(rows), x.Cols)
	as := make([]float64, len(rows))
	for k, r := range rows {
		copy(sv.Row(k), x.Row(r))
		as[k] = alpha[r]
	}
	return &OneClassSVM{kernel: p.Kernel, support: sv, alphas: as, rho: rho}
}

// Decision returns Σ α_i K(sv_i, x) - ρ; non-negative means "normal".
func (m *OneClassSVM) Decision(x []float64) float64 {
	s := 0.0
	for i, a := range m.alphas {
		s += a * m.kernel.Eval(m.support.Row(i), x)
	}
	return s - m.rho
}

// AnomalyScore returns -Decision(x): higher is more anomalous, matching the
// score orientation of the FRaC evaluation harness.
func (m *OneClassSVM) AnomalyScore(x []float64) float64 { return -m.Decision(x) }

// NumSupport reports the number of support vectors.
func (m *OneClassSVM) NumSupport() int { return len(m.alphas) }
