package linalg

import "testing"

// Kernel microbenchmarks at n=1024, one per exact-order and fast-tier
// kernel. CI's benchguard gate compares them against the committed
// go_bench baselines.

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

func BenchmarkAxpy1024(b *testing.B) {
	x, y := benchVecs(1024)
	for i := 0; i < b.N; i++ {
		Axpy(0.001, x, y)
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
