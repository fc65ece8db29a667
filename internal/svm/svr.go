// Package svm implements the support-vector models of the reproduction from
// scratch: L2-regularized linear support-vector regression and
// classification trained by dual coordinate descent (the LIBLINEAR method,
// substituting for the paper's libSVM linear kernels), and a kernel
// one-class SVM (Schölkopf et al., paper ref 6) trained by SMO, used as a
// prior-work baseline.
//
// The training matrices of this package must be fully numeric: callers
// impute or encode missing values first (frac/internal/core does this for
// FRaC's per-feature problems).
package svm

import (
	"fmt"
	"math"

	"frac/internal/linalg"
	"frac/internal/rng"
)

// SVRParams configures linear epsilon-insensitive support-vector regression.
type SVRParams struct {
	// C is the regularization trade-off (larger = fit harder). <= 0 selects 1.
	C float64
	// Epsilon is the insensitive-tube half-width. < 0 selects 0.1; 0 is valid
	// (pure L2-loss regression).
	Epsilon float64
	// MaxIter bounds outer coordinate-descent passes. <= 0 selects 100.
	MaxIter int
	// Tol is the maximum-violation stopping tolerance. <= 0 selects 1e-3.
	Tol float64
	// Bias adds an intercept term when true.
	Bias bool
	// Seed permutes coordinate order deterministically.
	Seed uint64
}

// WithDefaults returns p with every unset field at its default.
func (p SVRParams) WithDefaults() SVRParams {
	if p.C <= 0 {
		p.C = 1
	}
	if p.Epsilon < 0 {
		p.Epsilon = 0.1
	}
	if p.MaxIter <= 0 {
		p.MaxIter = 100
	}
	if p.Tol <= 0 {
		p.Tol = 1e-3
	}
	return p
}

// SVR is a trained linear support-vector regressor.
type SVR struct {
	W     []float64
	B     float64
	Iters int // outer passes actually used
}

// SVRWorkspace pools the transient buffers of SVR training (weights, dual
// variables, row norms, coordinate order) so repeated trainings — the
// cross-validation folds and final fits of every term a worker handles —
// allocate nothing. One workspace serves many sequential trainings, primal
// and Gram form alike; it must not be shared across goroutines.
type SVRWorkspace struct {
	w     []float64
	kb    []float64
	beta  []float64
	qd    []float64
	order []int
}

// ensure sizes the workspace for n training rows and d columns, zeroing the
// weights and dual variables.
func (ws *SVRWorkspace) ensure(n, d int) {
	ws.w = zeroed(ws.w, d)
	ws.beta = zeroed(ws.beta, n)
	if cap(ws.qd) < n {
		ws.qd = make([]float64, n)
	}
	ws.qd = ws.qd[:n]
	if cap(ws.order) < n {
		ws.order = make([]int, n)
	}
	ws.order = ws.order[:n]
}

// zeroed returns buf resized to n with every element 0.
func zeroed(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// TrainSVR fits an L2-regularized L2-loss epsilon-SVR by dual coordinate
// descent (Ho & Lin, 2012). X is n x d with one sample per row; y has length
// n. It panics on dimension mismatches or NaN inputs surfaced as non-finite
// progress.
//
// ws may be nil: the buffers are then freshly allocated and the returned
// model owns its weights. With a workspace, the returned SVR's W aliases the
// workspace and is only valid until its next use — callers keeping the model
// copy W out first. The model is bit-identical either way.
func TrainSVR(x *linalg.Matrix, y []float64, params SVRParams, ws *SVRWorkspace) *SVR {
	p := params.WithDefaults()
	n, d := x.Rows, x.Cols
	if len(y) != n {
		panic(fmt.Sprintf("svm: TrainSVR %d samples but %d targets", n, len(y)))
	}
	if ws == nil {
		ws = &SVRWorkspace{}
	}
	ws.ensure(n, d)
	if n == 0 {
		return &SVR{W: ws.w}
	}
	for i := 0; i < n; i++ {
		row := x.Row(i)
		ws.qd[i] = linalg.Dot(row, row)
	}
	b, iters := ws.descend(p, x, false, y)
	return &SVR{W: ws.w, B: b, Iters: iters}
}

// SVRDual is a fit in dual form: the coefficient of each training row, the
// bias, and the epochs used. The primal weights are w = Σᵢ Beta[i]·xᵢ.
type SVRDual struct {
	Beta  []float64
	B     float64
	Iters int
}

// TrainSVRGram fits the problem TrainSVR fits, given the Gram matrix of the
// training rows (k is n x n with k[i][j] = xᵢ·xⱼ, symmetric) instead of the
// rows themselves. The coordinate order, update rule and stopping test are
// TrainSVR's; only the gradient's linear part comes from a maintained Kβ
// instead of w·xᵢ, so an epoch costs O(n²) instead of O(n·d), and the fit
// equals TrainSVR's up to rounding, with the same Iters. Beta aliases ws,
// as TrainSVR's W does; ws may be nil.
func TrainSVRGram(k *linalg.Matrix, y []float64, params SVRParams, ws *SVRWorkspace) SVRDual {
	p := params.WithDefaults()
	n := k.Rows
	if k.Cols != n || len(y) != n {
		panic(fmt.Sprintf("svm: TrainSVRGram %dx%d Gram but %d targets", k.Rows, k.Cols, len(y)))
	}
	if ws == nil {
		ws = &SVRWorkspace{}
	}
	ws.ensure(n, 0)
	ws.kb = zeroed(ws.kb, n)
	if n == 0 {
		return SVRDual{Beta: ws.beta}
	}
	for i := 0; i < n; i++ {
		ws.qd[i] = k.At(i, i)
	}
	b, iters := ws.descend(p, k, true, y)
	return SVRDual{Beta: ws.beta, B: b, Iters: iters}
}

// descend is the repository's one dual coordinate-descent loop. qd holds
// each row's squared norm on entry. rows are the training rows, with the
// primal weights ws.w as the gradient source, or, when gram is set, the
// rows of the Gram matrix, with the maintained ws.kb = Kβ as the gradient
// source; both take the same steps in the same order.
func (ws *SVRWorkspace) descend(p SVRParams, rows *linalg.Matrix, gram bool, y []float64) (b float64, iters int) {
	lambda := 0.5 / p.C // L2-loss dual regularizer
	beta, qd, acc := ws.beta, ws.qd, ws.w
	if gram {
		acc = ws.kb
	}
	for i := range qd {
		qd[i] += lambda
		if p.Bias {
			qd[i]++
		}
	}
	order := ws.order
	for i := range order {
		order[i] = i
	}
	src := rng.New(p.Seed ^ 0x5f3759df)
	for iter := 0; iter < p.MaxIter; iter++ {
		iters = iter + 1
		src.Shuffle(order)
		maxViolation := 0.0
		for _, i := range order {
			row := rows.Row(i)
			var lin float64
			if gram {
				lin = acc[i]
			} else {
				lin = linalg.Dot(acc, row)
			}
			g := lin + b*boolTo1(p.Bias) - y[i] + lambda*beta[i]
			gp := g + p.Epsilon
			gn := g - p.Epsilon

			violation := 0.0
			switch {
			case beta[i] == 0:
				if gp < 0 {
					violation = -gp
				} else if gn > 0 {
					violation = gn
				}
			case beta[i] > 0:
				violation = math.Abs(gp)
			default:
				violation = math.Abs(gn)
			}
			if violation > maxViolation {
				maxViolation = violation
			}

			var delta float64
			h := qd[i]
			switch {
			case gp < h*beta[i]:
				delta = -gp / h
			case gn > h*beta[i]:
				delta = -gn / h
			default:
				delta = -beta[i]
			}
			if math.Abs(delta) < 1e-14 {
				continue
			}
			beta[i] += delta
			linalg.Axpy(delta, row, acc)
			if p.Bias {
				b += delta
			}
		}
		if maxViolation < p.Tol {
			break
		}
	}
	return b, iters
}

// Predict returns wᵀx + b.
func (m *SVR) Predict(x []float64) float64 {
	return linalg.Dot(m.W, x) + m.B
}

// Bytes reports the model's analytic footprint.
func (m *SVR) Bytes() int64 { return int64(len(m.W))*8 + 16 }

func boolTo1(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
