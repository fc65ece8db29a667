package linalg

import (
	"math"
	"testing"
)

// Property tests pinning the unrolled kernels to naive scalar reference
// implementations. The exact-order tier (Dot, Axpy) must match its
// frozen-order reference bit for bit at every length 0..67, including
// NaN/±0/denormal inputs —
// the frozen order is a documented contract (package comment, DESIGN.md
// §12), so any change here is a breaking change that invalidates golden
// pins. The fast reassociated tier (DotFast, SqDist) is pinned structurally:
// its kernels must stay ulp-bounded against a sequential reference.

const refMaxLen = 67 // spans 0, sub-group tails, and 16+ full 4-groups

// refValues fills deterministic test vectors mixing magnitudes with the
// special values the kernels must handle: NaN is exercised only where a
// test says so (NaN poisons exact comparison of unrelated lanes in
// ulp-bounded checks), but ±0 and denormals appear everywhere.
func refValues(n int, state *uint64) []float64 {
	next := func() float64 {
		*state = *state*6364136223846793005 + 1442695040888963407
		return float64(*state>>11)/float64(1<<53)*2 - 1
	}
	out := make([]float64, n)
	for i := range out {
		switch i % 7 {
		case 3:
			out[i] = math.Copysign(0, next()) // ±0
		case 5:
			out[i] = math.SmallestNonzeroFloat64 * math.Round(next()*8) // denormal
		default:
			out[i] = next() * math.Pow(2, math.Round(next()*20))
		}
	}
	return out
}

// refDot is the scalar specification of the frozen exact-tier order: lane
// s[j%4] accumulates element j of the first n-n%4 elements, lanes combine
// as (s0+s1)+(s2+s3), and the tail adds sequentially.
func refDot(x, y []float64) float64 {
	n := len(x)
	g := n - n%4
	var s [4]float64
	for j := 0; j < g; j++ {
		s[j%4] += x[j] * y[j]
	}
	sum := (s[0] + s[1]) + (s[2] + s[3])
	for j := g; j < n; j++ {
		sum += x[j] * y[j]
	}
	return sum
}

// refSeqDot is the plain sequential dot product — the reference the
// fast reassociated tier is ulp-bounded against.
func refSeqDot(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

func TestDotMatchesFrozenOrderReference(t *testing.T) {
	state := uint64(0x1234_5678_9abc_def0)
	for n := 0; n <= refMaxLen; n++ {
		x := refValues(n, &state)
		y := refValues(n, &state)
		if got, want := Dot(x, y), refDot(x, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("n=%d: Dot = %v (bits %016x), frozen-order ref = %v (bits %016x)",
				n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestDotNaNPropagates(t *testing.T) {
	x := []float64{1, math.NaN(), 3, 4, 5}
	y := []float64{1, 2, 3, 4, 5}
	if got := Dot(x, y); !math.IsNaN(got) {
		t.Errorf("Dot with NaN input = %v, want NaN", got)
	}
}

func TestAxpyMatchesNaiveReference(t *testing.T) {
	state := uint64(0x0dd_ba11)
	for n := 0; n <= refMaxLen; n++ {
		x := refValues(n, &state)
		base := refValues(n, &state)
		for _, a := range []float64{0, 1, -2.5, math.SmallestNonzeroFloat64} {
			got := append([]float64(nil), base...)
			want := append([]float64(nil), base...)
			Axpy(a, x, got)
			if a != 0 { // contract: a == 0 is a no-op, even over NaN x
				for i := range want {
					want[i] += a * x[i]
				}
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d a=%v elem %d: Axpy = %v, naive = %v", n, a, i, got[i], want[i])
				}
			}
		}
	}
}

// ulpBound returns an accumulation-error bound for comparing a reassociated
// sum against a sequential one: both are within n·eps·Σ|terms| of the true
// value, so they are within twice that of each other.
func ulpBound(n int, termSum float64) float64 {
	return 2 * float64(n+1) * 0x1p-52 * termSum
}

func TestDotFastUlpBoundedAgainstSequential(t *testing.T) {
	state := uint64(0xf457_d07)
	for n := 0; n <= refMaxLen; n++ {
		x := refValues(n, &state)
		y := refValues(n, &state)
		got := DotFast(x, y)
		want := refSeqDot(x, y)
		var mag float64
		for i := range x {
			mag += math.Abs(x[i] * y[i])
		}
		if diff := math.Abs(got - want); diff > ulpBound(n, mag) {
			t.Errorf("n=%d: DotFast = %v, sequential = %v, diff %v > bound %v",
				n, got, want, diff, ulpBound(n, mag))
		}
	}
	// NaN propagates through the fast tier too.
	if got := DotFast([]float64{1, math.NaN()}, []float64{1, 1}); !math.IsNaN(got) {
		t.Errorf("DotFast with NaN = %v, want NaN", got)
	}
}

func TestSqDistUlpBoundedAgainstSequential(t *testing.T) {
	state := uint64(0x5fd6_57)
	for n := 0; n <= refMaxLen; n++ {
		x := refValues(n, &state)
		y := refValues(n, &state)
		got := SqDist(x, y)
		var want, mag float64
		for i := range x {
			d := x[i] - y[i]
			want += d * d
			mag += d * d
		}
		if diff := math.Abs(got - want); diff > ulpBound(n, mag) {
			t.Errorf("n=%d: SqDist = %v, sequential = %v, diff %v", n, got, want, diff)
		}
	}
}
