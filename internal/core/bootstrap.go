package core

import (
	"context"
	"fmt"

	"frac/internal/dataset"
	"frac/internal/rng"
)

// RunBootstrapEnsemble implements the CSAX-style bootstrap over FRaC (paper
// §I: "CSAX includes bootstrapping over multiple FRaC runs"): each member
// trains on a bootstrap resample of the normal training set and scores the
// test set; members combine by per-feature median like the other ensembles.
// This is the computation whose cost motivated the paper's scalable
// variants; it composes with them — pass any term generator.
//
// terms is evaluated against the training feature count once; each member
// reuses the same wiring but a fresh resample.
func RunBootstrapEnsemble(train, test *dataset.Dataset, terms []Term, members int, src *rng.Source, cfg Config) ([]float64, error) {
	return RunBootstrapEnsembleCtx(context.Background(), train, test, terms, members, src, cfg)
}

// RunBootstrapEnsembleCtx is RunBootstrapEnsemble with cooperative
// cancellation and concurrent members (EnsembleSpec.Parallel semantics with
// the zero default: sequential under a tracker, else GOMAXPROCS-bounded).
// Each member draws its resample from its own derived stream, so the
// combined output is bit-identical for any member concurrency.
func RunBootstrapEnsembleCtx(ctx context.Context, train, test *dataset.Dataset, terms []Term, members int, src *rng.Source, cfg Config) ([]float64, error) {
	spec := EnsembleSpec{Members: members}.withDefaults()
	n := train.NumSamples()
	results, err := runMembers(ctx, spec, cfg, func(ctx context.Context, m int, cfg Config) (*Result, error) {
		stream := src.StreamN("bootstrap", m)
		rows := make([]int, n)
		for i := range rows {
			rows[i] = stream.IntN(n)
		}
		resample := train.SelectSamples(rows)
		cfg.Tracker.Alloc(resample.Bytes())
		defer cfg.Tracker.Release(resample.Bytes())
		res, err := RunCtx(ctx, resample, test, terms, cfg)
		if err != nil {
			return nil, fmt.Errorf("bootstrap: %w", err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return combineObserved(results, CombineMedian, cfg.Obs)
}
