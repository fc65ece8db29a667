package synth

import (
	"math"
	"testing"

	"frac/internal/dataset"
	"frac/internal/rng"
	"frac/internal/stats"
)

func TestGenerateExpressionShape(t *testing.T) {
	p := ExpressionParams{
		Features: 100, Normal: 30, Anomaly: 10,
		Modules: 5, ModuleSize: 10, DisruptFrac: 0.4,
	}
	d, err := GenerateExpression("e", p, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumSamples() != 40 || d.NumFeatures() != 100 {
		t.Fatalf("dims %dx%d", d.NumSamples(), d.NumFeatures())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	n, a := d.CountLabels()
	if n != 30 || a != 10 {
		t.Errorf("labels %d/%d", n, a)
	}
	for _, f := range d.Schema {
		if f.Kind != dataset.Real {
			t.Fatal("expression features must be real")
		}
	}
}

func TestGenerateExpressionDeterministic(t *testing.T) {
	p := ExpressionParams{Features: 50, Normal: 20, Anomaly: 5, Modules: 4, ModuleSize: 8, DisruptFrac: 0.5}
	a, _ := GenerateExpression("e", p, rng.New(9))
	b, _ := GenerateExpression("e", p, rng.New(9))
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("same seed, different data")
		}
	}
	c, _ := GenerateExpression("e", p, rng.New(10))
	same := true
	for i := range a.X.Data {
		if a.X.Data[i] != c.X.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestExpressionModuleCorrelation(t *testing.T) {
	// Genes of the same module must correlate strongly among normals;
	// noise genes must not.
	p := ExpressionParams{
		Features: 40, Normal: 400, Anomaly: 1,
		Modules: 2, ModuleSize: 10, NoiseSD: 0.3, DisruptFrac: 0.5,
	}
	d, _ := GenerateExpression("e", p, rng.New(2))
	corr := func(a, b int) float64 {
		var xs, ys []float64
		for i := 0; i < p.Normal; i++ {
			xs = append(xs, d.X.At(i, a))
			ys = append(ys, d.X.At(i, b))
		}
		mx, vx := stats.MeanVar(xs)
		my, vy := stats.MeanVar(ys)
		cov := 0.0
		for i := range xs {
			cov += (xs[i] - mx) * (ys[i] - my)
		}
		cov /= float64(len(xs) - 1)
		return cov / math.Sqrt(vx*vy)
	}
	// Genes 0..9 share module 0 (generation order).
	if c := math.Abs(corr(0, 1)); c < 0.7 {
		t.Errorf("module-mate |corr| = %v, want >= 0.7", c)
	}
	// Genes 20..39 are noise.
	if c := math.Abs(corr(25, 30)); c > 0.2 {
		t.Errorf("noise-gene |corr| = %v, want ~0", c)
	}
}

func TestExpressionMissingFraction(t *testing.T) {
	p := ExpressionParams{
		Features: 60, Normal: 50, Anomaly: 5,
		Modules: 3, ModuleSize: 8, DisruptFrac: 0.5, MissingFrac: 0.1,
	}
	d, _ := GenerateExpression("e", p, rng.New(3))
	if f := d.MissingFraction(); math.Abs(f-0.1) > 0.02 {
		t.Errorf("missing fraction %v, want ~0.1", f)
	}
}

func TestExpressionValidation(t *testing.T) {
	bad := []ExpressionParams{
		{Features: 10, Normal: 2, Anomaly: 1},                             // too few normals
		{Features: 10, Normal: 10, Anomaly: 1, Modules: 3, ModuleSize: 5}, // modules exceed features
		{Features: 10, Normal: 10, Anomaly: 1, DisruptFrac: 1.5},          // bad fraction
		{Features: 10, Normal: 10, Anomaly: 1, MissingFrac: 1.0},          // bad missing
	}
	for i, p := range bad {
		if _, err := GenerateExpression("e", p, rng.New(1)); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestGenerateSNPGenotypes(t *testing.T) {
	p := SNPParams{Features: 50, Normal: 100, Anomaly: 20, BlockSize: 5, LD: 0.7}
	d, err := GenerateSNP("s", p, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, f := range d.Schema {
		if f.Kind != dataset.Categorical || f.Arity != 3 {
			t.Fatal("SNP features must be ternary categorical")
		}
	}
	// All genotypes in {0,1,2}.
	for _, v := range d.X.Data {
		if v != 0 && v != 1 && v != 2 {
			t.Fatalf("genotype %v", v)
		}
	}
}

func TestSNPAlleleFrequencyInRange(t *testing.T) {
	p := SNPParams{Features: 30, Normal: 2000, Anomaly: 1, BlockSize: 5, LD: 0.5,
		MAFLow: 0.2, MAFHigh: 0.4}
	d, _ := GenerateSNP("s", p, rng.New(5))
	for j := 0; j < d.NumFeatures(); j++ {
		sum := 0.0
		for i := 0; i < p.Normal; i++ {
			sum += d.X.At(i, j)
		}
		freq := sum / float64(2*p.Normal)
		if freq < 0.1 || freq > 0.5 {
			t.Errorf("site %d empirical MAF %v outside generous [0.1,0.5]", j, freq)
		}
	}
}

func TestSNPLDWithinBlocks(t *testing.T) {
	p := SNPParams{Features: 20, Normal: 3000, Anomaly: 1, BlockSize: 10, LD: 0.8,
		MAFLow: 0.3, MAFHigh: 0.5}
	d, _ := GenerateSNP("s", p, rng.New(6))
	corr := func(a, b int) float64 {
		var xs, ys []float64
		for i := 0; i < p.Normal; i++ {
			xs = append(xs, d.X.At(i, a))
			ys = append(ys, d.X.At(i, b))
		}
		mx, vx := stats.MeanVar(xs)
		my, vy := stats.MeanVar(ys)
		cov := 0.0
		for i := range xs {
			cov += (xs[i] - mx) * (ys[i] - my)
		}
		cov /= float64(len(xs) - 1)
		return cov / math.Sqrt(vx*vy)
	}
	within := corr(0, 5)   // same block
	between := corr(0, 15) // different blocks
	if within < 0.3 {
		t.Errorf("within-block genotype corr %v, want >= 0.3", within)
	}
	if math.Abs(between) > 0.1 {
		t.Errorf("between-block corr %v, want ~0", between)
	}
}

func TestConfoundedSNPSplit(t *testing.T) {
	p := SNPParams{Features: 60, Normal: 50, Anomaly: 20, BlockSize: 6,
		MAFLow: 0.05, MAFHigh: 0.35, Confounded: true, DriftFrac: 0.2, DriftAmount: 0.3}
	train, test, err := GenerateConfoundedSNP("s", p, 8, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if train.NumSamples() != 42 {
		t.Errorf("train = %d, want 42", train.NumSamples())
	}
	if train.Anomalous != nil {
		t.Error("train must be unlabeled")
	}
	n, a := test.CountLabels()
	if n != 8 || a != 20 {
		t.Errorf("test labels %d/%d", n, a)
	}
	if _, _, err := GenerateConfoundedSNP("s", p, 50, rng.New(7)); err == nil {
		t.Error("testNormals >= Normal accepted")
	}
}

func TestCompendiumProfiles(t *testing.T) {
	profiles := Compendium()
	if len(profiles) != 8 {
		t.Fatalf("%d profiles, want 8 (Table I)", len(profiles))
	}
	names := map[string]bool{}
	for _, p := range profiles {
		names[p.Name] = true
	}
	for _, want := range []string{"breast.basal", "biomarkers", "ethnic", "bild",
		"smokers2", "hematopoiesis", "autism", "schizophrenia"} {
		if !names[want] {
			t.Errorf("missing profile %q", want)
		}
	}
}

func TestProfileScaledGeneration(t *testing.T) {
	p, err := ProfileByName("breast.basal")
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Generate(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumFeatures() != 3167/64 {
		t.Errorf("features = %d, want %d", d.NumFeatures(), 3167/64)
	}
	n, a := d.CountLabels()
	if n != 56 || a != 19 {
		t.Errorf("samples %d/%d, want paper's 56/19", n, a)
	}
	// Confounded profile refuses Generate.
	sz, _ := ProfileByName("schizophrenia")
	if _, err := sz.Generate(64, 1); err == nil {
		t.Error("confounded Generate should error")
	}
	tr, te, err := sz.GenerateSplit(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumSamples() != 270 || te.NumSamples() != 64 {
		t.Errorf("schizophrenia split %d/%d, want 270/64", tr.NumSamples(), te.NumSamples())
	}
	// Non-confounded profile refuses GenerateSplit.
	if _, _, err := p.GenerateSplit(64, 1); err == nil {
		t.Error("replicated profile GenerateSplit should error")
	}
}

func TestProfileByNameUnknown(t *testing.T) {
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
}
