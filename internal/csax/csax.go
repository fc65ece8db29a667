// Package csax implements CSAX-style anomaly characterization (Noto et
// al., "CSAX: Characterizing Systematic Anomalies in eXpression data",
// paper ref 7) on top of the FRaC engine.
//
// FRaC says *how* anomalous a sample is; CSAX says *why*: which annotated
// gene sets (pathways, modules, functional categories) are enriched among
// the features driving the sample's surprisal. The paper describes CSAX as
// FRaC plus "bootstrapping over multiple FRaC runs" — the computation whose
// cost motivated the scalable variants this repository reproduces — so the
// characterizer here accepts any term wiring and composes with filtering
// and diverse FRaC.
//
// Pipeline per test sample:
//
//  1. Run FRaC (optionally over B bootstrap resamples of the normals).
//  2. Rank features by their NS contribution for the sample.
//  3. Score every gene set with a weighted Kolmogorov–Smirnov running-sum
//     enrichment statistic (the GSEA form).
//  4. Aggregate across bootstrap runs: a set's robustness is the fraction
//     of runs in which it was enriched above threshold.
package csax

import (
	"fmt"
	"math"
	"sort"

	"frac/internal/core"
	"frac/internal/dataset"
	"frac/internal/rng"
)

// GeneSet is a named feature group (indices into the original data set).
type GeneSet struct {
	Name    string
	Members []int
}

// Validate checks membership indices against a feature count.
func (g GeneSet) Validate(numFeatures int) error {
	if g.Name == "" {
		return fmt.Errorf("csax: unnamed gene set")
	}
	if len(g.Members) == 0 {
		return fmt.Errorf("csax: gene set %q is empty", g.Name)
	}
	for _, m := range g.Members {
		if m < 0 || m >= numFeatures {
			return fmt.Errorf("csax: gene set %q member %d out of [0,%d)", g.Name, m, numFeatures)
		}
	}
	return nil
}

// Config parameterizes characterization.
type Config struct {
	// FRaC configures the underlying engine runs.
	FRaC core.Config
	// Bootstraps is the number of resampled FRaC runs (the paper's CSAX
	// uses bootstrapping; 1 disables resampling). <= 0 selects 5.
	Bootstraps int
}

func (c Config) withDefaults() Config {
	if c.Bootstraps <= 0 {
		c.Bootstraps = 5
	}
	return c
}

const (
	// enrichmentThreshold is the ES at or above which a set counts as
	// enriched in one run, for the robustness fraction.
	enrichmentThreshold = 0.3
	// gseaWeight is the GSEA weighting exponent p on the ranking metric:
	// 1 is the weighted KS statistic, the GSEA default.
	gseaWeight = 1
)

// SetScore is one gene set's evidence for one sample.
type SetScore struct {
	Name string
	// ES is the mean enrichment score across bootstrap runs (positive:
	// members concentrate among the most surprising features).
	ES float64
	// Robustness is the fraction of bootstrap runs with ES at or above
	// the enrichment threshold — CSAX's stability measure.
	Robustness float64
}

// Characterization explains one test sample.
type Characterization struct {
	Sample int
	// NS is the sample's mean total normalized surprisal across runs.
	NS float64
	// Sets is sorted by decreasing ES.
	Sets []SetScore
}

// Characterize runs bootstrapped FRaC over the wiring and returns one
// characterization per test sample. Gene sets index original features (the
// Orig field of terms), so filtered wirings work as long as some members
// survive the filter.
func Characterize(train, test *dataset.Dataset, terms []core.Term, sets []GeneSet, src *rng.Source, cfg Config) ([]Characterization, error) {
	cfg = cfg.withDefaults()
	for _, g := range sets {
		if err := g.Validate(train.NumFeatures()); err != nil {
			return nil, err
		}
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("csax: no gene sets")
	}

	type runScores struct {
		perFeature map[int][]float64 // orig feature -> per-sample NS
		totals     []float64
	}
	runs := make([]runScores, cfg.Bootstraps)
	n := train.NumSamples()
	for b := 0; b < cfg.Bootstraps; b++ {
		stream := src.StreamN("csax-bootstrap", b)
		trainB := train
		if cfg.Bootstraps > 1 {
			rows := make([]int, n)
			for i := range rows {
				rows[i] = stream.IntN(n)
			}
			trainB = train.SelectSamples(rows)
		}
		res, err := core.Run(trainB, test, terms, cfg.FRaC)
		if err != nil {
			return nil, fmt.Errorf("csax bootstrap %d: %w", b, err)
		}
		perFeature := map[int][]float64{}
		for ti, term := range res.Terms {
			row := res.PerTerm.Row(ti)
			acc := perFeature[term.Orig]
			if acc == nil {
				acc = make([]float64, len(row))
				perFeature[term.Orig] = acc
			}
			for s, v := range row {
				acc[s] += v
			}
		}
		runs[b] = runScores{perFeature: perFeature, totals: res.Scores}
	}

	out := make([]Characterization, test.NumSamples())
	for s := 0; s < test.NumSamples(); s++ {
		agg := map[string]*SetScore{}
		var nsSum float64
		for _, run := range runs {
			nsSum += run.totals[s]
			// Per-run feature ranking metric for this sample.
			feats := make([]int, 0, len(run.perFeature))
			metric := map[int]float64{}
			for orig, scores := range run.perFeature {
				feats = append(feats, orig)
				metric[orig] = scores[s]
			}
			for _, g := range sets {
				es := EnrichmentScore(feats, metric, g.Members, gseaWeight)
				sc := agg[g.Name]
				if sc == nil {
					sc = &SetScore{Name: g.Name}
					agg[g.Name] = sc
				}
				sc.ES += es / float64(len(runs))
				if es >= enrichmentThreshold {
					sc.Robustness += 1 / float64(len(runs))
				}
			}
		}
		scores := make([]SetScore, 0, len(agg))
		for _, sc := range agg {
			scores = append(scores, *sc)
		}
		sort.Slice(scores, func(i, j int) bool {
			if scores[i].ES != scores[j].ES {
				return scores[i].ES > scores[j].ES
			}
			return scores[i].Name < scores[j].Name
		})
		out[s] = Characterization{Sample: s, NS: nsSum / float64(len(runs)), Sets: scores}
	}
	return out, nil
}

// EnrichmentScore computes the weighted Kolmogorov–Smirnov enrichment
// statistic (the GSEA running sum): features are ranked by decreasing
// metric; walking down the ranking, hitting a member advances the sum by
// |metric|^weight (normalized), missing retreats by 1/(misses). The score
// is the maximum positive deviation, in [0, 1]; sets whose members carry no
// metric signal score near sqrt-noise levels.
func EnrichmentScore(features []int, metric map[int]float64, members []int, weight float64) float64 {
	if len(features) == 0 || len(members) == 0 {
		return 0
	}
	ranked := append([]int(nil), features...)
	sort.Slice(ranked, func(a, b int) bool {
		ma, mb := metric[ranked[a]], metric[ranked[b]]
		if ma != mb {
			return ma > mb
		}
		return ranked[a] < ranked[b]
	})
	inSet := make(map[int]bool, len(members))
	for _, m := range members {
		inSet[m] = true
	}
	// Normalizers.
	var hitNorm float64
	hits := 0
	for _, f := range ranked {
		if inSet[f] {
			hitNorm += powAbs(metric[f], weight)
			hits++
		}
	}
	misses := len(ranked) - hits
	if hits == 0 || misses == 0 {
		return 0
	}
	if hitNorm == 0 {
		hitNorm = 1
	}
	missStep := 1 / float64(misses)
	var sum, maxDev float64
	for _, f := range ranked {
		if inSet[f] {
			sum += powAbs(metric[f], weight) / hitNorm
		} else {
			sum -= missStep
		}
		if sum > maxDev {
			maxDev = sum
		}
	}
	return maxDev
}

func powAbs(x, p float64) float64 {
	return math.Pow(math.Abs(x), p)
}
