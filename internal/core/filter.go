package core

import (
	"context"
	"fmt"
	"math"

	"frac/internal/dataset"
	"frac/internal/obs"
	"frac/internal/parallel"
	"frac/internal/rng"
	"frac/internal/stats"
)

// FilterMethod selects how full filtering chooses features to keep.
type FilterMethod uint8

const (
	// RandomFilter keeps a uniform random subset (paper §II.A "simple
	// random filtering").
	RandomFilter FilterMethod = iota
	// EntropyFilter keeps the highest-entropy features: Shannon entropy for
	// categorical features, KDE differential entropy for continuous ones.
	EntropyFilter
)

// String implements fmt.Stringer.
func (m FilterMethod) String() string {
	switch m {
	case RandomFilter:
		return "random"
	case EntropyFilter:
		return "entropy"
	default:
		return fmt.Sprintf("FilterMethod(%d)", uint8(m))
	}
}

// KeepCount converts a keep-fraction into a feature count, always at least 1
// and at most numFeatures.
func KeepCount(numFeatures int, p float64) int {
	k := int(math.Round(p * float64(numFeatures)))
	if k < 1 {
		k = 1
	}
	if k > numFeatures {
		k = numFeatures
	}
	return k
}

// SelectFilter returns the original indices of the features kept by the
// method at fraction p, computed from the training set only.
func SelectFilter(train *dataset.Dataset, method FilterMethod, p float64, src *rng.Source) []int {
	k := KeepCount(train.NumFeatures(), p)
	switch method {
	case RandomFilter:
		kept := src.SampleK(train.NumFeatures(), k)
		return kept
	case EntropyFilter:
		ranks := FeatureEntropies(train, KDEEntropy)
		return stats.TopKIndices(ranks, k)
	default:
		panic(fmt.Sprintf("core: unknown filter method %v", method))
	}
}

// FeatureEntropies estimates per-feature training-set entropy: Shannon
// entropy for categorical features and differential entropy (per est) for
// continuous ones, computed in parallel.
func FeatureEntropies(train *dataset.Dataset, est EntropyEstimator) []float64 {
	out := make([]float64, train.NumFeatures())
	parallel.For(train.NumFeatures(), func(j int) {
		obs := train.ObservedColumn(j)
		f := train.Schema[j]
		if f.Kind == dataset.Categorical {
			labels := make([]int, len(obs))
			for i, v := range obs {
				labels[i] = int(v)
			}
			out[j] = stats.ShannonEntropy(labels, f.Arity)
		} else {
			out[j] = continuousEntropy(obs, est)
		}
	})
	return out
}

// RunFullFiltered applies full filtering (paper §II.A): select kept
// features, project both splits onto them, and run ordinary FRaC in the
// reduced space. The returned result's terms carry original feature indices
// in Orig.
func RunFullFiltered(train, test *dataset.Dataset, method FilterMethod, p float64, src *rng.Source, cfg Config) (*Result, []int, error) {
	return RunFullFilteredCtx(context.Background(), train, test, method, p, src, cfg)
}

// RunFullFilteredCtx is RunFullFiltered with cooperative cancellation.
func RunFullFilteredCtx(ctx context.Context, train, test *dataset.Dataset, method FilterMethod, p float64, src *rng.Source, cfg Config) (*Result, []int, error) {
	span := cfg.Obs.Start(obs.PhaseFilter)
	kept := SelectFilter(train, method, p, src)
	trainF := train.SelectFeatures(kept)
	testF := test.SelectFeatures(kept)
	span.End()
	cfg.Obs.Add(obs.CounterFeaturesKept, int64(len(kept)))
	cfg.Obs.Add(obs.CounterFeaturesDropped, int64(train.NumFeatures()-len(kept)))
	b := trainF.Bytes() + testF.Bytes()
	cfg.Tracker.Alloc(b)
	defer cfg.Tracker.Release(b)
	res, err := RunCtx(ctx, trainF, testF, FilteredTerms(kept), cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, kept, nil
}

// RunPartialFiltered applies partial filtering: models only for kept
// targets, trained on all other features of the unfiltered data set. The
// paper found this consistently inferior to full filtering; it is kept for
// the ablation bench.
func RunPartialFiltered(train, test *dataset.Dataset, method FilterMethod, p float64, src *rng.Source, cfg Config) (*Result, []int, error) {
	return RunPartialFilteredCtx(context.Background(), train, test, method, p, src, cfg)
}

// RunPartialFilteredCtx is RunPartialFiltered with cooperative cancellation.
func RunPartialFilteredCtx(ctx context.Context, train, test *dataset.Dataset, method FilterMethod, p float64, src *rng.Source, cfg Config) (*Result, []int, error) {
	span := cfg.Obs.Start(obs.PhaseFilter)
	kept := SelectFilter(train, method, p, src)
	span.End()
	cfg.Obs.Add(obs.CounterFeaturesKept, int64(len(kept)))
	cfg.Obs.Add(obs.CounterFeaturesDropped, int64(train.NumFeatures()-len(kept)))
	res, err := RunCtx(ctx, train, test, PartialTerms(kept, train.NumFeatures()), cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, kept, nil
}

// RunDiverse applies Diverse FRaC (paper §II.B) with inclusion probability p
// and the given predictors-per-feature count (1 in the paper's main
// experiments).
func RunDiverse(train, test *dataset.Dataset, p float64, predictorsPerFeature int, src *rng.Source, cfg Config) (*Result, error) {
	return RunDiverseCtx(context.Background(), train, test, p, predictorsPerFeature, src, cfg)
}

// RunDiverseCtx is RunDiverse with cooperative cancellation.
func RunDiverseCtx(ctx context.Context, train, test *dataset.Dataset, p float64, predictorsPerFeature int, src *rng.Source, cfg Config) (*Result, error) {
	terms := DiverseTerms(train.NumFeatures(), p, predictorsPerFeature, src)
	return RunCtx(ctx, train, test, terms, cfg)
}
