// Package linalg provides the dense linear-algebra kernels the FRaC
// reproduction is built on: float64 vectors and row-major matrices with the
// handful of BLAS-level operations the learners and the JL transform need.
//
// The kernels are split into two tiers (DESIGN.md §12):
//
//   - The *exact-order tier* — Dot, Axpy — uses a frozen 4-wide unrolled
//     accumulation order. SVR training and prediction run through Dot, so
//     the pinned goldens depend on this order: it is a contract, not an
//     implementation detail.
//
//   - The *fast reassociated tier* — DotFast, SqDist — is free to pick
//     whatever accumulation order is fastest and may change between
//     releases. Only call sites pinned by tolerance tests (matrix products,
//     kernel distances, LOF, the JL transform) may use it.
//
// Hot loops are written so the compiler can eliminate bounds checks
// (explicit `y = y[:n]` reslices), panics are hoisted into //go:noinline
// helpers so the wrappers stay inlinable, and the matrix product is
// parallelized across rows.
package linalg

import (
	"fmt"
	"math"
)

//go:noinline
func panicLenMismatch(op string, a, b int) {
	panic(fmt.Sprintf("linalg: %s length mismatch %d vs %d", op, a, b))
}

// Dot returns the inner product of x and y. It panics if the lengths differ.
//
// Frozen accumulation order (exact tier): four independent lanes s0..s3 take
// elements 4k, 4k+1, 4k+2, 4k+3 of the first n-n%4 elements; the lanes
// combine as (s0+s1)+(s2+s3); the tail (< 4 elements) is then added
// sequentially in ascending index order.
func Dot(x, y []float64) float64 {
	return dot4(x, y)
}

// dot4 is the outlined kernel behind Dot; validation lives here so the
// exported wrapper stays a single call and inlines.
func dot4(x, y []float64) float64 {
	if len(x) != len(y) {
		panicLenMismatch("Dot", len(x), len(y))
	}
	n := len(x)
	if n == 0 {
		return 0
	}
	y = y[:n] // bounds-check elimination hint
	var s0, s1, s2, s3 float64
	g := n &^ 3
	for j := 0; j < g; j += 4 {
		s0 += x[j] * y[j]
		s1 += x[j+1] * y[j+1]
		s2 += x[j+2] * y[j+2]
		s3 += x[j+3] * y[j+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for j := g; j < n; j++ {
		s += x[j] * y[j]
	}
	return s
}

// Axpy computes y += a*x in place. It panics if the lengths differ. Element
// updates are independent, so the unrolled kernel is bit-identical to the
// one-element loop.
func Axpy(a float64, x, y []float64) {
	axpyChecked(a, x, y)
}

func axpyChecked(a float64, x, y []float64) {
	if len(x) != len(y) {
		panicLenMismatch("Axpy", len(x), len(y))
	}
	if a == 0 {
		return
	}
	axpy4(a, x, y)
}

// axpy4 is the raw unrolled kernel behind Axpy; x and y must have equal
// length.
func axpy4(a float64, x, y []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	y = y[:n]
	g := n &^ 3
	for j := 0; j < g; j += 4 {
		y[j] += a * x[j]
		y[j+1] += a * x[j+1]
		y[j+2] += a * x[j+2]
		y[j+3] += a * x[j+3]
	}
	for j := g; j < n; j++ {
		y[j] += a * x[j]
	}
}

// Scale computes x *= a in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Norm2 returns the Euclidean norm of x, guarding against overflow for the
// magnitudes seen in this codebase via a scaled accumulation.
func Norm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// SqDist returns the squared Euclidean distance between x and y.
//
// Fast tier: the accumulation order is reassociated (4 independent lanes)
// and not part of any bit-identity contract — every call site (KDE/LOF
// distances, RBF kernels, the JL transform) is pinned by tolerance tests
// only.
func SqDist(x, y []float64) float64 {
	return sqDist4(x, y)
}

func sqDist4(x, y []float64) float64 {
	if len(x) != len(y) {
		panicLenMismatch("SqDist", len(x), len(y))
	}
	n := len(x)
	if n == 0 {
		return 0
	}
	y = y[:n]
	var s0, s1, s2, s3 float64
	g := n &^ 3
	for j := 0; j < g; j += 4 {
		d0 := x[j] - y[j]
		d1 := x[j+1] - y[j+1]
		d2 := x[j+2] - y[j+2]
		d3 := x[j+3] - y[j+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	s := (s0 + s1) + (s2 + s3)
	for j := g; j < n; j++ {
		d := x[j] - y[j]
		s += d * d
	}
	return s
}

// AddTo computes dst = x + y. dst may alias x or y.
func AddTo(dst, x, y []float64) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("linalg: AddTo length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] + y[i]
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}
