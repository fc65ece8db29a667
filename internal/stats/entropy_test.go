package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestShannonEntropyUniform(t *testing.T) {
	// Uniform over k categories has entropy ln(k).
	for _, k := range []int{2, 3, 8} {
		labels := make([]int, 100*k)
		for i := range labels {
			labels[i] = i % k
		}
		want := math.Log(float64(k))
		if got := ShannonEntropy(labels, k); !almostEq(got, want, 1e-12) {
			t.Errorf("uniform entropy k=%d: %v, want %v", k, got, want)
		}
	}
}

func TestShannonEntropyDegenerate(t *testing.T) {
	if got := ShannonEntropy([]int{1, 1, 1, 1}, 3); got != 0 {
		t.Errorf("constant labels entropy = %v, want 0", got)
	}
	if got := ShannonEntropy(nil, 3); got != 0 {
		t.Errorf("empty entropy = %v, want 0", got)
	}
}

func TestEntropyBounds(t *testing.T) {
	// Property: 0 <= H <= ln(k) for any label distribution.
	f := func(raw []uint8) bool {
		const k = 4
		labels := make([]int, len(raw))
		for i, v := range raw {
			labels[i] = int(v) % k
		}
		h := ShannonEntropy(labels, k)
		return h >= 0 && h <= math.Log(k)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGaussianDifferentialEntropyMatchesKDEOnNormalData(t *testing.T) {
	// Both estimators should roughly agree on a large Gaussian sample.
	xs := make([]float64, 2000)
	s := 12345.0
	for i := range xs {
		// deterministic pseudo-normal via sum of uniforms
		u := 0.0
		for j := 0; j < 12; j++ {
			s = math.Mod(s*1103515245+12345, 2147483648)
			u += s / 2147483648
		}
		xs[i] = u - 6
	}
	g := GaussianDifferentialEntropy(xs)
	k := KDEDifferentialEntropy(xs)
	if math.Abs(g-k) > 0.1 {
		t.Errorf("Gaussian entropy %v vs KDE entropy %v diverge on normal data", g, k)
	}
}
