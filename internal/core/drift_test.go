package core

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"frac/internal/binio"
	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/rng"
)

// driftTrainSet builds an all-normal training set large enough for a drift
// reference (>= drift.MinSamples).
func driftTrainSet(n int) *dataset.Dataset {
	schema := dataset.Schema{
		{Name: "f0", Kind: dataset.Real},
		{Name: "f1", Kind: dataset.Real},
	}
	train := dataset.New("train", schema, n)
	src := rng.New(17)
	for i := 0; i < n; i++ {
		v := src.Norm()
		train.Sample(i)[0] = v
		train.Sample(i)[1] = 2*v + 0.05*src.Norm()
	}
	return train
}

func TestCaptureDriftReferenceAndPersist(t *testing.T) {
	train := driftTrainSet(64)
	m, err := Train(train, FullTerms(2), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.DriftReference() != nil {
		t.Fatal("fresh model has a drift reference")
	}
	if err := m.CaptureDriftReference(context.Background(), train); err != nil {
		t.Fatal(err)
	}
	ref := m.DriftReference()
	if ref == nil {
		t.Fatal("no reference captured")
	}
	if ref.N != 64 {
		t.Errorf("reference over %d samples, want 64", ref.N)
	}
	if ref.NumTerms() != m.NumTerms() {
		t.Errorf("%d term summaries for %d terms", ref.NumTerms(), m.NumTerms())
	}
	withRef := m.Bytes()
	m.SetDriftReference(nil)
	if m.Bytes() >= withRef {
		t.Errorf("Bytes() does not account for the reference")
	}
	m.SetDriftReference(ref)

	got := roundTripModel(t, m)
	if !reflect.DeepEqual(got.DriftReference(), ref) {
		t.Fatalf("reference did not survive persistence:\n got %+v\nwant %+v", got.DriftReference(), ref)
	}
	assertSameScores(t, m, got, train)
}

func TestCaptureDriftReferenceRejectsTooSmall(t *testing.T) {
	train, _ := tinyRealTrainTest() // 12 samples
	m, err := Train(train, FullTerms(2), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CaptureDriftReference(context.Background(), train); err == nil {
		t.Fatal("12-sample reference accepted")
	}
	if m.DriftReference() != nil {
		t.Fatal("failed capture left a reference behind")
	}
}

// TestReadModelVersion1Stream pins backward compatibility: a version-1
// artifact (no drift trailer) must still load, with no reference.
func TestReadModelVersion1Stream(t *testing.T) {
	train := driftTrainSet(48)
	m, err := Train(train, FullTerms(2), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Hand-write the version-1 layout: magic, version, schema, terms —
	// exactly what WriteTo produced before the drift trailer existed.
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	bw.String(modelMagic)
	bw.Int(1)
	dataset.EncodeSchema(bw, m.schema)
	bw.Int(len(m.terms))
	for i := range m.terms {
		if err := encodeTerm(bw, &m.terms[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatalf("version-1 stream rejected: %v", err)
	}
	if got.DriftReference() != nil {
		t.Error("version-1 stream produced a drift reference")
	}
	assertSameScores(t, m, got, train)
}

func TestReadModelRejectsFutureVersion(t *testing.T) {
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	bw.String(modelMagic)
	bw.Int(modelVersion + 1)
	if _, err := ReadModel(&buf); err == nil {
		t.Fatal("future version accepted")
	}
}

// observerRecorder captures the ObserveTerm call sequence.
type observerRecorder struct {
	order []int
	sums  []float64
	rows  int
}

func (o *observerRecorder) ObserveTerm(ti int, contribs []float64) {
	o.order = append(o.order, ti)
	var s float64
	for _, v := range contribs {
		s += v
	}
	o.sums = append(o.sums, s)
	o.rows = len(contribs)
}

// TestScoreRowsObservedParity pins the tap contract: observing changes no
// score bit, the observer sees every term in ascending order, and the
// observed contributions sum to the row totals.
func TestScoreRowsObservedParity(t *testing.T) {
	train, test := goldenTrainTest()
	m, err := Train(train, FullTerms(train.NumFeatures()), Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	n := test.NumSamples()
	rows := linalg.NewMatrix(n, test.NumFeatures())
	for i := 0; i < n; i++ {
		copy(rows.Row(i), test.Sample(i))
	}
	plain := make([]float64, n)
	if err := m.ScoreRowsInto(rows, plain, NewScoreWorkspace()); err != nil {
		t.Fatal(err)
	}
	obs := &observerRecorder{}
	observed := make([]float64, n)
	if err := m.ScoreRowsExplainedObserved(rows, observed, NewScoreWorkspace(), obs, nil, 0); err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if math.Float64bits(plain[i]) != math.Float64bits(observed[i]) {
			t.Errorf("sample %d: observed path %v differs from plain %v", i, observed[i], plain[i])
		}
	}
	if len(obs.order) != m.NumTerms() {
		t.Fatalf("observer saw %d terms, want %d", len(obs.order), m.NumTerms())
	}
	for i, ti := range obs.order {
		if ti != i {
			t.Fatalf("terms observed out of order: %v", obs.order)
		}
	}
	if obs.rows != n {
		t.Errorf("observer saw %d rows, want %d", obs.rows, n)
	}
	var fromTerms, fromTotals float64
	for _, s := range obs.sums {
		fromTerms += s
	}
	for _, v := range plain {
		fromTotals += v
	}
	if math.Abs(fromTerms-fromTotals) > 1e-9*math.Max(1, math.Abs(fromTotals)) {
		t.Errorf("observed contributions sum to %v, totals sum to %v", fromTerms, fromTotals)
	}
}

func TestModelTermTarget(t *testing.T) {
	train := driftTrainSet(48)
	m, err := Train(train, FullTerms(2), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < m.NumTerms(); ti++ {
		got := m.TermTarget(ti)
		if got < 0 || got >= len(m.Schema()) {
			t.Errorf("term %d targets feature %d, out of schema range", ti, got)
		}
	}
}
