package linalg

// Fast reassociated kernel tier (DESIGN.md §12). Unlike Dot and Axpy, the
// accumulation order here is NOT a contract: lanes and combine order may
// change whenever a faster schedule is found. Only call sites whose outputs
// are pinned by tolerance tests may use this tier — today the matrix
// products (MulVec, MulTransposed), the one-class SVM gradient, and the
// linear kernel evaluation. Anything feeding the SVR training and scoring
// bit-identity contract must stay on the exact tier.

// DotFast returns the inner product of x and y using eight independent
// accumulator lanes. The result generally differs from Dot in the last few
// ulps because the partial sums are reassociated. It panics if the lengths
// differ.
func DotFast(x, y []float64) float64 {
	return dotFast8(x, y)
}

func dotFast8(x, y []float64) float64 {
	if len(x) != len(y) {
		panicLenMismatch("DotFast", len(x), len(y))
	}
	n := len(x)
	if n == 0 {
		return 0
	}
	y = y[:n] // bounds-check elimination hint
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	g := n &^ 7
	for j := 0; j < g; j += 8 {
		s0 += x[j] * y[j]
		s1 += x[j+1] * y[j+1]
		s2 += x[j+2] * y[j+2]
		s3 += x[j+3] * y[j+3]
		s4 += x[j+4] * y[j+4]
		s5 += x[j+5] * y[j+5]
		s6 += x[j+6] * y[j+6]
		s7 += x[j+7] * y[j+7]
	}
	s := ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
	for j := g; j < n; j++ {
		s += x[j] * y[j]
	}
	return s
}
