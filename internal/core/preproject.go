package core

import (
	"context"
	"fmt"

	"frac/internal/dataset"
	"frac/internal/encode"
	"frac/internal/jl"
	"frac/internal/obs"
	"frac/internal/rng"
)

// JLSpec configures the JL pre-projection variant (paper §II.D).
type JLSpec struct {
	// Dim is the projected dimensionality k (the paper uses 1024 for
	// expression data and 1024–4096 for the schizophrenia SNP set).
	Dim int
	// Family selects the projection entry distribution; default Gaussian.
	Family jl.Family
	// Learners optionally overrides the model used in the projected space;
	// the zero value keeps the config's learners (linear SVR by default) —
	// the paper observes that entropy-minimizing trees are NOT invariant
	// under linear maps and perform worse there; TreeLearners exercises
	// that ablation.
	Learners Learners
}

// RunJL applies the full pre-projection pipeline of Fig. 2: 1-hot encode
// categoricals, concatenate with reals, apply a k x d JL transform drawn
// from src, and run ordinary FRaC (full wiring) in the projected all-real
// space. The encoder and projection are fitted/drawn once and shared by the
// train and test splits.
func RunJL(train, test *dataset.Dataset, spec JLSpec, src *rng.Source, cfg Config) (*Result, error) {
	return RunJLCtx(context.Background(), train, test, spec, src, cfg)
}

// RunJLCtx is RunJL with cooperative cancellation.
func RunJLCtx(ctx context.Context, train, test *dataset.Dataset, spec JLSpec, src *rng.Source, cfg Config) (*Result, error) {
	if spec.Dim <= 0 {
		return nil, fmt.Errorf("core: JL dimension %d", spec.Dim)
	}
	cfg = cfg.withDefaults()
	if !spec.Learners.isZero() {
		cfg.Learners = spec.Learners
	}

	span := cfg.Obs.Start(obs.PhaseProject)
	enc := encode.Fit(train)
	transform := jl.New(spec.Dim, enc.Width(), spec.Family, src.Stream("jl-matrix"))

	projTrain, err := projectDataset(train, enc, transform)
	if err != nil {
		return nil, err
	}
	projTest, err := projectDataset(test, enc, transform)
	if err != nil {
		return nil, err
	}
	span.End()
	b := transform.Bytes() + projTrain.Bytes() + projTest.Bytes()
	cfg.Tracker.Alloc(b)
	defer cfg.Tracker.Release(b)
	return RunCtx(ctx, projTrain, projTest, FullTerms(spec.Dim), cfg)
}

// projectDataset encodes and projects a data set into the k-dim real space,
// carrying anomaly labels over.
func projectDataset(d *dataset.Dataset, enc *encode.OneHot, t *jl.Transform) (*dataset.Dataset, error) {
	encoded := enc.EncodeDataset(d)
	projected := t.ApplyMatrix(encoded)
	out := &dataset.Dataset{
		Name:   d.Name + "-jl",
		Schema: dataset.RealSchema(t.K),
		X:      projected,
	}
	if d.Anomalous != nil {
		out.Anomalous = append([]bool(nil), d.Anomalous...)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
