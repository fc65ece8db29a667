package svm

import (
	"math"

	"frac/internal/linalg"
	"frac/internal/parallel"
)

// Kernel is a positive-semidefinite similarity function.
type Kernel interface {
	// Eval returns K(x, y).
	Eval(x, y []float64) float64
}

// LinearKernel is K(x, y) = xᵀy.
type LinearKernel struct{}

// Eval implements Kernel.
func (LinearKernel) Eval(x, y []float64) float64 { return linalg.DotFast(x, y) }

// RBFKernel is K(x, y) = exp(-γ‖x-y‖²).
type RBFKernel struct {
	Gamma float64
}

// Eval implements Kernel.
func (k RBFKernel) Eval(x, y []float64) float64 {
	return math.Exp(-k.Gamma * linalg.SqDist(x, y))
}

// MedianGamma returns the RBF heuristic γ = 1/median(‖x_i-x_j‖²) over the
// sample pairs of X (capped pair enumeration for big n), a standard default
// when no tuning data exists.
func MedianGamma(x *linalg.Matrix) float64 {
	n := x.Rows
	if n < 2 {
		return 1
	}
	var dists []float64
	// Full enumeration up to ~200 samples, strided beyond.
	stride := 1
	if n > 200 {
		stride = n / 200
	}
	for i := 0; i < n; i += stride {
		for j := i + stride; j < n; j += stride {
			dists = append(dists, linalg.SqDist(x.Row(i), x.Row(j)))
		}
	}
	med := medianOf(dists)
	if med <= 0 {
		return 1
	}
	return 1 / med
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// insertion-free selection via sort on a copy (n here is small)
	tmp := append([]float64(nil), xs...)
	for i := 1; i < len(tmp); i++ {
		for j := i; j > 0 && tmp[j] < tmp[j-1]; j-- {
			tmp[j], tmp[j-1] = tmp[j-1], tmp[j]
		}
	}
	m := len(tmp) / 2
	if len(tmp)%2 == 1 {
		return tmp[m]
	}
	return (tmp[m-1] + tmp[m]) / 2
}

// GramMatrix computes the n x n kernel matrix of X's rows, parallelized over
// rows and exploiting symmetry.
func GramMatrix(k Kernel, x *linalg.Matrix) *linalg.Matrix {
	n := x.Rows
	q := linalg.NewMatrix(n, n)
	parallel.For(n, func(i int) {
		xi := x.Row(i)
		for j := i; j < n; j++ {
			v := k.Eval(xi, x.Row(j))
			q.Set(i, j, v)
			q.Set(j, i, v)
		}
	})
	return q
}
