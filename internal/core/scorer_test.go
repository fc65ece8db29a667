package core

import (
	"math"
	"strings"
	"testing"

	"frac/internal/dataset"
	"frac/internal/linalg"
)

// TestScoreRowsIntoBitIdentical pins the serving-path contract: pushing the
// golden test rows through ScoreRowsInto — at any partitioning into batches —
// must reproduce ScoreDataset().Totals() bit for bit, including rows with
// missing values and out-of-schema categories. The wide model's rows are
// projected onto its basis per batch, and must match too.
func TestScoreRowsIntoBitIdentical(t *testing.T) {
	for _, fx := range scoreFixtures(t) {
		scoreRowsIntoMatches(t, fx.name, fx.model, fx.test)
	}
}

func scoreRowsIntoMatches(t *testing.T, name string, model *Model, test *dataset.Dataset) {
	ss, err := model.ScoreDataset(test)
	if err != nil {
		t.Fatal(err)
	}
	want := ss.Totals()

	n, cols := test.NumSamples(), test.NumFeatures()
	for _, batch := range []int{1, 2, n - 1, n} {
		ws := NewScoreWorkspace()
		got := make([]float64, n)
		for lo := 0; lo < n; lo += batch {
			hi := lo + batch
			if hi > n {
				hi = n
			}
			rows := linalg.NewMatrix(hi-lo, cols)
			for i := lo; i < hi; i++ {
				copy(rows.Row(i-lo), test.Sample(i))
			}
			if err := model.ScoreRowsInto(rows, got[lo:hi], ws); err != nil {
				t.Fatal(err)
			}
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s batch=%d sample %d: got %x (%v), want %x (%v)",
					name, batch, i, math.Float64bits(got[i]), got[i],
					math.Float64bits(want[i]), want[i])
			}
		}
	}
}

// TestScoreRowsIntoValidates pins the error contract: wrong row width and
// mismatched output length are rejected before any scoring.
func TestScoreRowsIntoValidates(t *testing.T) {
	train, _ := goldenTrainTest()
	model, err := Train(train, FullTerms(train.NumFeatures()), Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ws := NewScoreWorkspace()
	if err := model.ScoreRowsInto(linalg.NewMatrix(2, 3), make([]float64, 2), ws); err == nil {
		t.Error("wrong width accepted")
	}
	if err := model.ScoreRowsInto(linalg.NewMatrix(2, train.NumFeatures()), make([]float64, 3), ws); err == nil {
		t.Error("wrong output length accepted")
	}
}

// TestScorePanicsOnWrongWidth: Score has no error return, so a sample
// narrower or wider than the schema panics with ScoreRowsInto's error
// instead of indexing past the sample or ignoring its extra cells.
func TestScorePanicsOnWrongWidth(t *testing.T) {
	train, _ := goldenTrainTest()
	model, err := Train(train, FullTerms(train.NumFeatures()), Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{train.NumFeatures() - 1, train.NumFeatures() + 1} {
		func() {
			defer func() {
				r := recover()
				err, ok := r.(error)
				if !ok || !strings.Contains(err.Error(), "features") {
					t.Errorf("width %d: recovered %v, want the feature-count error", width, r)
				}
			}()
			model.Score(make([]float64, width))
		}()
	}
}

// TestScoreRowsIntoZeroAllocs guards the serving hot path: once the
// workspace has grown to the batch shape, ScoreRowsInto must not allocate,
// on the golden model and on the wide model, whose batch projection lives
// in the workspace.
func TestScoreRowsIntoZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, fx := range scoreFixtures(t) {
		model, test := fx.model, fx.test
		rows := linalg.NewMatrix(test.NumSamples(), test.NumFeatures())
		for i := 0; i < test.NumSamples(); i++ {
			copy(rows.Row(i), test.Sample(i))
		}
		out := make([]float64, rows.Rows)
		ws := NewScoreWorkspace()
		if err := model.ScoreRowsInto(rows, out, ws); err != nil { // warm up
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := model.ScoreRowsInto(rows, out, ws); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: ScoreRowsInto allocates %.1f per batch, want 0", fx.name, allocs)
		}
	}
}
