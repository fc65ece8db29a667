package encode

import (
	"testing"

	"frac/internal/dataset"
)

func fixtureDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	schema := dataset.Schema{
		{Name: "r", Kind: dataset.Real},
		{Name: "c", Kind: dataset.Categorical, Arity: 3},
	}
	d := dataset.New("enc", schema, 3)
	copy(d.Sample(0), []float64{2, 0})
	copy(d.Sample(1), []float64{4, 2})
	copy(d.Sample(2), []float64{dataset.Missing, 1})
	return d
}

func TestEncodeWidthAndLayout(t *testing.T) {
	d := fixtureDataset(t)
	enc := Fit(d)
	if enc.Width() != 4 { // 1 real + 3-ary one-hot
		t.Fatalf("width = %d", enc.Width())
	}
	out := enc.Encode([]float64{1.5, 2}, nil)
	want := []float64{1.5, 0, 0, 1}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Encode = %v, want %v", out, want)
		}
	}
}

func TestEncodePaperFig2Example(t *testing.T) {
	// Fig. 2: schema R,R,R,R,{0,1,2},{0,1,2,3}; data (3.4, 0, -2, 0.6, 1, 2)
	// -> (3.4, 0, -2, 0.6, 0,1,0, 0,0,1,0)
	schema := dataset.Schema{
		{Name: "a", Kind: dataset.Real}, {Name: "b", Kind: dataset.Real},
		{Name: "c", Kind: dataset.Real}, {Name: "d", Kind: dataset.Real},
		{Name: "e", Kind: dataset.Categorical, Arity: 3},
		{Name: "f", Kind: dataset.Categorical, Arity: 4},
	}
	d := dataset.New("fig2", schema, 1)
	copy(d.Sample(0), []float64{3.4, 0, -2, 0.6, 1, 2})
	enc := Fit(d)
	got := enc.Encode(d.Sample(0), nil)
	want := []float64{3.4, 0, -2, 0.6, 0, 1, 0, 0, 0, 1, 0}
	if len(got) != len(want) {
		t.Fatalf("width = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Encode = %v, want %v", got, want)
		}
	}
}

func TestEncodeImputesMissing(t *testing.T) {
	d := fixtureDataset(t)
	enc := Fit(d)
	out := enc.Encode([]float64{dataset.Missing, dataset.Missing}, nil)
	if out[0] != 3 { // mean of observed {2, 4}
		t.Errorf("missing real imputed to %v, want training mean 3", out[0])
	}
	if out[1] != 0 || out[2] != 0 || out[3] != 0 {
		t.Errorf("missing categorical should be all-zero block, got %v", out[1:])
	}
}

func TestEncodeDataset(t *testing.T) {
	d := fixtureDataset(t)
	enc := Fit(d)
	m := enc.EncodeDataset(d)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("dims %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 3) != 1 { // sample 1 has category 2
		t.Errorf("row 1 = %v", m.Row(1))
	}
	if m.At(2, 0) != 3 { // imputed mean
		t.Errorf("imputed cell = %v", m.At(2, 0))
	}
}

func TestEncodeReusesBuffer(t *testing.T) {
	d := fixtureDataset(t)
	enc := Fit(d)
	buf := make([]float64, enc.Width())
	out := enc.Encode(d.Sample(0), buf)
	if &out[0] != &buf[0] {
		t.Error("Encode did not reuse the provided buffer")
	}
}
