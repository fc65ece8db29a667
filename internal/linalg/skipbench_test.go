package linalg

import "testing"

// Skip-kernel microbenchmarks: the masked training path's per-op cost must
// stay at parity with the contiguous kernels (the two-range loops compile to
// the same bounds-check-free code), or masked training loses its copy
// savings back in the coordinate-descent inner loop.

var sinkF float64

func benchVecs(n int) ([]float64, []float64) {
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) * 0.25
		y[i] = float64(i%5) * 0.5
	}
	return x, y
}

func BenchmarkDot1024(b *testing.B) {
	x, y := benchVecs(1024)
	for i := 0; i < b.N; i++ {
		sinkF += Dot(x, y)
	}
}

func BenchmarkDotSkip1024(b *testing.B) {
	x, y := benchVecs(1024)
	for i := 0; i < b.N; i++ {
		sinkF += DotSkip(x, y, 512)
	}
}

func BenchmarkAxpy1024(b *testing.B) {
	x, y := benchVecs(1024)
	for i := 0; i < b.N; i++ {
		Axpy(0.001, x, y)
	}
}

func BenchmarkAxpySkip1024(b *testing.B) {
	x, y := benchVecs(1024)
	for i := 0; i < b.N; i++ {
		AxpySkip(0.001, x, y, 512)
	}
}

func BenchmarkSqNormSkip1024(b *testing.B) {
	x, _ := benchVecs(1024)
	for i := 0; i < b.N; i++ {
		sinkF += SqNormSkip(x, 512)
	}
}

func BenchmarkDotFast1024(b *testing.B) {
	x, y := benchVecs(1024)
	for i := 0; i < b.N; i++ {
		sinkF += DotFast(x, y)
	}
}

func BenchmarkSqDist1024(b *testing.B) {
	x, y := benchVecs(1024)
	for i := 0; i < b.N; i++ {
		sinkF += SqDist(x, y)
	}
}
