package eval

import (
	"math"
	"testing"
)

// aucGateParent is the AUC baseline the full-run gate holds Table II to:
// each set's mean AUC and replicate SD for full FRaC at 1:32, 5 replicates,
// seed 1, measured once at commit d8eed56, before a Train drew one set of
// CV folds for all its terms. To re-measure at some commit, run this file
// there; it logs the table it measured:
//
//	git archive <commit> | tar -x -C /tmp/base
//	cp internal/eval/aucgate_test.go /tmp/base/internal/eval/
//	cd /tmp/base && go test -run TestFullRunAUCGate -v ./internal/eval/
var aucGateParent = []struct {
	set      string
	mean, sd float64
}{
	{"breast.basal", 0.767313, 0.028587},
	{"biomarkers", 0.863245, 0.023940},
	{"ethnic", 0.666536, 0.021828},
	{"bild", 0.708929, 0.092272},
	{"smokers2", 0.638462, 0.049478},
	{"hematopoiesis", 0.873793, 0.007513},
	{"autism", 0.469290, 0.022999},
}

// TestFullRunAUCGate is the executable AUC gate for a golden re-pin: a
// change that moves results beyond rounding must keep every Table II set's
// mean AUC within the baseline's replicate SD of the baseline's mean, over
// the six expression profiles and autism at 1:32, 5 replicates, seed 1.
func TestFullRunAUCGate(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 35 full FRaC models")
	}
	rows, err := Table2(Options{Scale: 32, Replicates: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]Table2Row{}
	for _, r := range rows {
		if r.Extrapolated {
			continue
		}
		measured[r.Dataset] = r
		t.Logf("{%q, %.6f, %.6f},", r.Dataset, r.AUC, r.AUCSD)
	}
	if len(measured) != 7 {
		t.Fatalf("%d measured sets, want the six expression profiles and autism", len(measured))
	}
	if len(aucGateParent) != len(measured) {
		t.Fatalf("baseline has %d sets, measured %d", len(aucGateParent), len(measured))
	}
	for _, base := range aucGateParent {
		r, ok := measured[base.set]
		if !ok {
			t.Errorf("%s: no measured row", base.set)
			continue
		}
		if gap := math.Abs(r.AUC - base.mean); !(gap <= base.sd) {
			t.Errorf("%s: mean AUC %.4f is %.4f from the baseline's %.4f, beyond its replicate SD %.4f",
				base.set, r.AUC, gap, base.mean, base.sd)
		}
	}
}
