package svm

import (
	"fmt"
	"math"

	"frac/internal/linalg"
	"frac/internal/rng"
)

// Masked-column SVR training: the all-but-one subproblems of FRaC share one
// full-width design matrix and differ only in which column is the target, so
// instead of gathering an n x (d-1) copy per term the trainer reads the
// shared matrix in place through exact-order skip kernels. The float
// sequence of every inner product is identical to gather-then-train
// (DESIGN.md §10), so masked training is bit-for-bit equivalent to
// TrainSVR on the gathered matrix — the property the pinned goldens and
// TestMaskedTrainingBitIdentical enforce.

// MaskedView is a read-only, column-masked view of a full-width design
// matrix that is already fully numeric: imputed and standardized (the
// per-Train shared design matrix, or one materialized cross-validation fold
// of it). The zero Skip masks column 0.
type MaskedView struct {
	X *linalg.Matrix
	// Skip is the masked (target) column, excluded from every product.
	Skip int
}

// stdCell standardizes one raw cell: impute NaN to the mean, then center and
// scale. This is the exact cell formula of the copying pipeline
// (imputeMatrixInto + standardizeMatrix), applied lazily.
func stdCell(v, mean, scale float64) float64 {
	if math.IsNaN(v) {
		v = mean
	}
	return (v - mean) * scale
}

// skipIdx maps a logical (gathered) index to its physical column.
func skipIdx(j, skip int) int {
	if j < skip {
		return j
	}
	return j + 1
}

// dotSkipStd is DotSkip over the lazily standardized row. The per-element
// product is w[c] * ((v-mean)*scale) — the same grouping the gathered path
// produces by standardizing the cell first — and the lanes follow
// linalg.Dot's frozen 4-wide order over logical (gathered) indices
// (DESIGN.md §12), so the result is bit-identical to standardizing the
// gathered row and calling Dot.
func dotSkipStd(w, x, means, scales []float64, skip int) float64 {
	m := len(x) - 1 // logical (gathered) length
	g := m &^ 3
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= g && j+4 <= skip; j += 4 {
		s0 += w[j] * stdCell(x[j], means[j], scales[j])
		s1 += w[j+1] * stdCell(x[j+1], means[j+1], scales[j+1])
		s2 += w[j+2] * stdCell(x[j+2], means[j+2], scales[j+2])
		s3 += w[j+3] * stdCell(x[j+3], means[j+3], scales[j+3])
	}
	if j+4 <= g && j < skip {
		p0, p1, p2, p3 := skipIdx(j, skip), skipIdx(j+1, skip), skipIdx(j+2, skip), skipIdx(j+3, skip)
		s0 += w[p0] * stdCell(x[p0], means[p0], scales[p0])
		s1 += w[p1] * stdCell(x[p1], means[p1], scales[p1])
		s2 += w[p2] * stdCell(x[p2], means[p2], scales[p2])
		s3 += w[p3] * stdCell(x[p3], means[p3], scales[p3])
		j += 4
	}
	for ; j+4 <= g; j += 4 {
		s0 += w[j+1] * stdCell(x[j+1], means[j+1], scales[j+1])
		s1 += w[j+2] * stdCell(x[j+2], means[j+2], scales[j+2])
		s2 += w[j+3] * stdCell(x[j+3], means[j+3], scales[j+3])
		s3 += w[j+4] * stdCell(x[j+4], means[j+4], scales[j+4])
	}
	s := (s0 + s1) + (s2 + s3)
	for ; j < m; j++ {
		p := skipIdx(j, skip)
		s += w[p] * stdCell(x[p], means[p], scales[p])
	}
	return s
}

// SVRWorkspace pools the transient buffers of masked SVR training (weights,
// dual variables, row norms, coordinate order) so cross-validation folds
// train with zero allocations. One workspace serves many sequential
// trainings; it must not be shared across goroutines. When a workspace is
// supplied, the returned SVR's W aliases ws.W and is only valid until the
// workspace's next use — callers keeping the model copy W out first.
type SVRWorkspace struct {
	W     []float64
	beta  []float64
	qd    []float64
	order []int
}

// ensure sizes the workspace for n training rows and d full-width columns.
func (ws *SVRWorkspace) ensure(n, d int) {
	if cap(ws.W) < d {
		ws.W = make([]float64, d)
	}
	ws.W = ws.W[:d]
	for i := range ws.W {
		ws.W[i] = 0
	}
	if cap(ws.beta) < n {
		ws.beta = make([]float64, n)
	}
	ws.beta = ws.beta[:n]
	for i := range ws.beta {
		ws.beta[i] = 0
	}
	if cap(ws.qd) < n {
		ws.qd = make([]float64, n)
	}
	ws.qd = ws.qd[:n]
	if cap(ws.order) < n {
		ws.order = make([]int, n)
	}
	ws.order = ws.order[:n]
}

// TrainSVRMasked fits the same L2-regularized L2-loss epsilon-SVR as
// TrainSVR, but against a column-masked view of a full-width design matrix:
// no gathered copy is ever built. The returned weight vector is full width
// (len = view.X.Cols) with W[view.Skip] == 0; predictions must go through
// PredictSkipStd so the masked column stays excluded.
//
// Bit-identity contract: for any view, TrainSVRMasked produces exactly the
// model TrainSVR would produce on the gathered (d-1)-column matrix — same coordinate order (the permutation RNG sees the same seed and
// the same n), same partial-sum chains (skip kernels), same stopping
// iteration. The masked-vs-gather property tests pin this with exact ==.
//
// ws may be nil (buffers are then freshly allocated, and the returned W is
// safe to retain).
func TrainSVRMasked(view MaskedView, y []float64, params SVRParams, ws *SVRWorkspace) *SVR {
	p := params.withDefaults()
	n, d := view.X.Rows, view.X.Cols
	if len(y) != n {
		panic(fmt.Sprintf("svm: TrainSVRMasked %d samples but %d targets", n, len(y)))
	}
	if view.Skip < 0 || view.Skip >= d {
		panic(fmt.Sprintf("svm: TrainSVRMasked skip column %d out of [0,%d)", view.Skip, d))
	}
	if ws == nil {
		ws = &SVRWorkspace{}
	}
	ws.ensure(n, d)
	w := ws.W
	var b float64
	if n == 0 {
		return &SVR{W: w}
	}
	lambda := 0.5 / p.C
	beta := ws.beta
	qd := ws.qd
	for i := 0; i < n; i++ {
		qd[i] = linalg.SqNormSkip(view.X.Row(i), view.Skip) + lambda
		if p.Bias {
			qd[i]++
		}
	}
	order := ws.order
	for i := range order {
		order[i] = i
	}
	src := rng.New(p.Seed ^ 0x5f3759df)
	iters := 0
	for iter := 0; iter < p.MaxIter; iter++ {
		iters = iter + 1
		src.Shuffle(order)
		maxViolation := 0.0
		for _, i := range order {
			row := view.X.Row(i)
			g := linalg.DotSkip(w, row, view.Skip) + b*boolTo1(p.Bias) - y[i] + lambda*beta[i]
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
			linalg.AxpySkip(delta, row, w, view.Skip)
			if p.Bias {
				b += delta
			}
		}
		if maxViolation < p.Tol {
			break
		}
	}
	return &SVR{W: w, B: b, Iters: iters}
}

// PredictSkipStd evaluates the masked model against one raw full-width row,
// standardizing cells on the fly with the supplied per-column statistics:
// the masked analogue of impute-then-standardize-then-Predict, bit-identical
// to that pipeline.
func (m *SVR) PredictSkipStd(x, means, scales []float64, skip int) float64 {
	return dotSkipStd(m.W, x, means, scales, skip) + m.B
}
