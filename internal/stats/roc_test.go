package stats

import (
	"testing"
	"testing/quick"
)

func TestAUCPerfectSeparation(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	if auc := AUC(scores, labels); auc != 1 {
		t.Errorf("perfect AUC = %v", auc)
	}
	// Inverted scores give AUC 0.
	inv := []float64{0.1, 0.2, 0.8, 0.9}
	if auc := AUC(inv, labels); auc != 0 {
		t.Errorf("inverted AUC = %v", auc)
	}
}

func TestAUCAllTied(t *testing.T) {
	scores := []float64{5, 5, 5, 5}
	labels := []bool{true, false, true, false}
	if auc := AUC(scores, labels); auc != 0.5 {
		t.Errorf("all-tied AUC = %v, want 0.5 via midranks", auc)
	}
}

func TestAUCHandComputed(t *testing.T) {
	// anomalies at scores {3, 1}, controls at {2, 0}:
	// pairs: (3>2),(3>0),(1<2),(1>0) -> 3/4
	scores := []float64{3, 1, 2, 0}
	labels := []bool{true, true, false, false}
	if auc := AUC(scores, labels); auc != 0.75 {
		t.Errorf("AUC = %v, want 0.75", auc)
	}
}

func TestAUCPanicsOnDegenerateClasses(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AUC with one class did not panic")
		}
	}()
	AUC([]float64{1, 2}, []bool{true, true})
}

func TestMidRanks(t *testing.T) {
	ranks := MidRanks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("MidRanks = %v, want %v", ranks, want)
		}
	}
}

func TestAUCInvariantUnderMonotoneTransform(t *testing.T) {
	// Property: AUC depends only on score order.
	f := func(raw []int8) bool {
		if len(raw) < 4 {
			return true
		}
		scores := make([]float64, len(raw))
		labels := make([]bool, len(raw))
		nA := 0
		for i, v := range raw {
			scores[i] = float64(v)
			labels[i] = i%2 == 0
			if labels[i] {
				nA++
			}
		}
		if nA == 0 || nA == len(raw) {
			return true
		}
		a1 := AUC(scores, labels)
		squashed := make([]float64, len(scores))
		for i, v := range scores {
			squashed[i] = v*v*v + 2*v // strictly monotone
		}
		a2 := AUC(squashed, labels)
		return almostEq(a1, a2, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
