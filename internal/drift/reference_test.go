package drift

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"frac/internal/binio"
)

func refScores(t *testing.T, n int, seed int64, mean, sd float64) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = mean + sd*rng.NormFloat64()
	}
	return xs
}

func TestBuildReferenceAdaptiveSizing(t *testing.T) {
	cases := []struct {
		n, bins, cells int
	}{
		{32, 16, 4},    // floors
		{56, 16, 4},    // breast.basal-sized reference
		{200, 50, 12},  // mid-range: n/4 bins, n/16 cells
		{5000, 64, 16}, // ceilings
	}
	for _, tc := range cases {
		r, err := BuildReference(refScores(t, tc.n, 1, 5, 2), nil, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if r.NumBins() != tc.bins {
			t.Errorf("n=%d: %d bins, want %d", tc.n, r.NumBins(), tc.bins)
		}
		if r.NumCells() != tc.cells {
			t.Errorf("n=%d: %d cells, want %d", tc.n, r.NumCells(), tc.cells)
		}
		var total float64
		for _, c := range r.Counts {
			total += c
		}
		if total != float64(tc.n) {
			t.Errorf("n=%d: histogram mass %v", tc.n, total)
		}
		if err := r.Validate(); err != nil {
			t.Errorf("n=%d: freshly built reference invalid: %v", tc.n, err)
		}
	}
}

func TestBuildReferenceRejects(t *testing.T) {
	if _, err := BuildReference(make([]float64, MinSamples-1), nil, nil); err == nil {
		t.Error("expected error for too-small reference")
	}
	bad := refScores(t, 64, 2, 0, 1)
	bad[10] = math.NaN()
	if _, err := BuildReference(bad, nil, nil); err == nil {
		t.Error("expected error for NaN score")
	}
	bad[10] = math.Inf(1)
	if _, err := BuildReference(bad, nil, nil); err == nil {
		t.Error("expected error for Inf score")
	}
	if _, err := BuildReference(refScores(t, 64, 2, 0, 1), []float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected error for mismatched term summaries")
	}
}

func TestBuildReferenceCollapsesDuplicateEdges(t *testing.T) {
	// A near-constant score distribution (heavily tied quantiles) must not
	// produce duplicate edges.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 3.0
	}
	xs[0], xs[1] = 2.9, 3.1
	r, err := BuildReference(xs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(r.QEdges); i++ {
		if r.QEdges[i] <= r.QEdges[i-1] {
			t.Fatalf("edges not strictly increasing: %v", r.QEdges)
		}
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReferenceBinAndCellMapping(t *testing.T) {
	r, err := BuildReference(refScores(t, 500, 3, 5, 2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Outliers (including infinities) clamp to the edge bins and cells.
	if got := r.bin(math.Inf(-1)); got != 0 {
		t.Errorf("bin(-Inf)=%d", got)
	}
	if got := r.bin(math.Inf(1)); got != r.NumBins()-1 {
		t.Errorf("bin(+Inf)=%d, want %d", got, r.NumBins()-1)
	}
	if got := r.qcell(math.Inf(-1)); got != 0 {
		t.Errorf("qcell(-Inf)=%d", got)
	}
	if got := r.qcell(math.Inf(1)); got != r.NumCells()-1 {
		t.Errorf("qcell(+Inf)=%d, want %d", got, r.NumCells()-1)
	}
	// Every in-range value maps to a valid bin, and bin/qcell are monotone.
	prevBin, prevCell := -1, -1
	for x := -10.0; x <= 25; x += 0.05 {
		b, c := r.bin(x), r.qcell(x)
		if b < 0 || b >= r.NumBins() || c < 0 || c >= r.NumCells() {
			t.Fatalf("x=%v: bin=%d cell=%d out of range", x, b, c)
		}
		if b < prevBin || c < prevCell {
			t.Fatalf("x=%v: mapping not monotone (bin %d<%d or cell %d<%d)", x, b, prevBin, c, prevCell)
		}
		prevBin, prevCell = b, c
	}
	// The reference's own samples spread roughly evenly over quantile cells.
	counts := make([]int, r.NumCells())
	for _, s := range refScores(t, 500, 3, 5, 2) {
		counts[r.qcell(s)]++
	}
	for k, c := range counts {
		if c == 0 {
			t.Errorf("cell %d empty on the reference's own samples", k)
		}
	}
}

func TestReferenceRoundTrip(t *testing.T) {
	term := []float64{0.5, 1.5, -2}
	sd := []float64{0.1, 0.2, 0.3}
	r, err := BuildReference(refScores(t, 200, 4, -1, 3), term, sd)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	r.Encode(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReference(binio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestDecodeReferenceRejectsCorrupt(t *testing.T) {
	r, err := BuildReference(refScores(t, 100, 5, 0, 1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(mutate func(*Reference)) []byte {
		c := *r
		c.Counts = append([]float64(nil), r.Counts...)
		c.QEdges = append([]float64(nil), r.QEdges...)
		mutate(&c)
		var buf bytes.Buffer
		w := binio.NewWriter(&buf)
		c.Encode(w)
		return buf.Bytes()
	}
	cases := map[string][]byte{
		"bad magic":      append([]byte("XRAC-DRIFT"), encode(func(*Reference) {})[10:]...),
		"negative count": encode(func(c *Reference) { c.Counts[0] = -1 }),
		"mass mismatch":  encode(func(c *Reference) { c.Counts[0] += 50 }),
		"unsorted edges": encode(func(c *Reference) { c.QEdges[0], c.QEdges[1] = c.QEdges[1], c.QEdges[0] }),
		"nan edge":       encode(func(c *Reference) { c.QEdges[0] = math.NaN() }),
		"bad range":      encode(func(c *Reference) { c.Lo, c.Hi = 1, 0 }),
		"zero samples":   encode(func(c *Reference) { c.N = 0 }),
		"truncated":      encode(func(*Reference) {})[:20],
	}
	for name, blob := range cases {
		if _, err := DecodeReference(binio.NewReader(bytes.NewReader(blob))); err == nil {
			t.Errorf("%s: decode accepted corrupt blob", name)
		}
	}
}
