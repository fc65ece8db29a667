// Package eval is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Tables I–V, Figs. 1–3) over the
// synthetic compendium, at a configurable feature scale.
//
// Scale semantics: feature counts are the paper's divided by Options.Scale
// (sample counts are kept at the paper's values — they drive AUC
// reliability and are small). Derived quantities scale consistently: the JL
// dimension 1024 becomes 1024/Scale, etc. Absolute times shrink
// accordingly, but the *fractions of the full run* that Tables III–V report
// are scale-free to first order, which is what the reproduction checks.
package eval

import (
	"context"
	"fmt"
	"io"
	"time"

	"frac/internal/core"
	"frac/internal/dataset"
	"frac/internal/obs"
	"frac/internal/resource"
	"frac/internal/rng"
	"frac/internal/stats"
	"frac/internal/svm"
	"frac/internal/synth"
	"frac/internal/tree"
)

// Options configures a harness run.
type Options struct {
	// Ctx cancels a harness run cooperatively: when it is done, in-flight
	// table cells finish and the run returns ctx.Err(). Nil means Background.
	Ctx context.Context
	// Scale divides the paper's feature counts. Default 16.
	Scale int
	// Replicates per data set (the paper uses 5). Default 5.
	Replicates int
	// Seed roots all randomness.
	Seed uint64
	// Workers bounds model-training parallelism (<= 0: GOMAXPROCS).
	Workers int
	// SweepParallel bounds how many variant-sweep cells (one variant on one
	// replicate) run concurrently. Default 1 (sequential, the paper-faithful
	// measurement mode). Concurrent cells share one bounded compute pool
	// sized by Workers, and cell outputs aggregate in deterministic index
	// order, so AUC columns are identical for every SweepParallel value;
	// only wall-clock changes. Cost fractions stay meaningful because they
	// are computed from summed CPU time and analytic peak bytes, not wall
	// time.
	SweepParallel int

	// FilterP is the full-filtering keep fraction (paper: 0.05).
	FilterP float64
	// EnsembleMembers is the filter/diverse ensemble size (paper: 10).
	EnsembleMembers int
	// DiverseP is the single-run diverse inclusion probability (paper: 1/2).
	DiverseP float64
	// DiverseEnsembleP is the per-member diverse probability (paper: 1/20).
	DiverseEnsembleP float64
	// JLDim is the expression-data projection dimension *at paper scale*
	// (paper: 1024); the harness divides by Scale.
	JLDim int

	// JLRepeats is the number of independent projections per JL data point
	// on the schizophrenia exhibits (paper: 10).
	JLRepeats int

	// Out receives the rendered tables. Nil discards.
	Out io.Writer

	// Obs, when non-nil, collects harness telemetry: phase spans, term
	// counters, pool occupancy, and progress accounting across every cell of
	// every exhibit. Telemetry only observes, so all table values are
	// identical with and without it.
	Obs *obs.Recorder
}

// WithDefaults fills unset fields with the paper's settings.
func (o Options) WithDefaults() Options {
	if o.Scale < 1 {
		o.Scale = 16
	}
	if o.Replicates < 1 {
		o.Replicates = 5
	}
	if o.FilterP <= 0 {
		o.FilterP = 0.05
	}
	if o.EnsembleMembers < 1 {
		o.EnsembleMembers = 10
	}
	if o.DiverseP <= 0 {
		o.DiverseP = 0.5
	}
	if o.DiverseEnsembleP <= 0 {
		o.DiverseEnsembleP = 1.0 / 20
	}
	if o.JLDim <= 0 {
		o.JLDim = 1024
	}
	if o.JLRepeats < 1 {
		o.JLRepeats = 10
	}
	return o
}

// ScaledJLDim returns the projection dimension after feature scaling,
// floored at 8.
func (o Options) ScaledJLDim(paperDim int) int {
	d := paperDim / o.Scale
	if d < 8 {
		d = 8
	}
	return d
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// ctx returns the run's context, defaulting to Background.
func (o Options) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// sweepParallel resolves the cell-level concurrency (>= 1).
func (o Options) sweepParallel() int {
	if o.SweepParallel < 1 {
		return 1
	}
	return o.SweepParallel
}

// configFor returns the engine config for a profile: the paper's learner
// choice (linear SVR on expression data, decision trees on SNP data).
func configFor(p synth.Profile, o Options, tracker *resource.Tracker) core.Config {
	cfg := core.Config{
		Workers: o.Workers,
		Seed:    o.Seed ^ 0xfeed,
		Tracker: tracker,
		Obs:     o.Obs,
	}
	if p.SNP {
		cfg.Learners = core.TreeLearners(tree.Params{})
	} else {
		// C = 0.01 on standardized features: the n << d regime of these
		// data sets needs strong regularization for the SVR to generalize
		// (the core learner standardizes, so C is comparable across raw
		// and JL-projected spaces).
		cfg.Learners = core.MixedLearners(svm.SVRParams{C: 0.01}, tree.Params{})
	}
	return cfg
}

// replicatesFor generates a profile's sample pool and its train/test
// replicates. Generation counts as the load phase for telemetry — it is the
// harness's equivalent of reading a data set off disk.
func replicatesFor(p synth.Profile, o Options) ([]dataset.Replicate, error) {
	span := o.Obs.Start(obs.PhaseLoad)
	defer span.End()
	if p.Confounded {
		train, test, err := p.GenerateSplit(o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		rep, err := dataset.FixedSplit(train, test)
		if err != nil {
			return nil, err
		}
		return []dataset.Replicate{rep}, nil
	}
	pool, err := p.Generate(o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	return dataset.MakeReplicates(pool, o.Replicates, 2.0/3, rng.New(o.Seed).Stream("splits-"+p.Name))
}

// runScored executes fn under a fresh tracker and returns the resulting
// anomaly-score AUC and cost. fn receives the run context and the
// tracker-carrying config.
func runScored(ctx context.Context, p synth.Profile, o Options, rep dataset.Replicate,
	fn func(ctx context.Context, cfg core.Config) ([]float64, error)) (auc float64, cost resource.Cost, err error) {
	tracker := resource.NewTracker()
	cfg := configFor(p, o, tracker)
	scores, err := fn(ctx, cfg)
	if err != nil {
		return 0, resource.Cost{}, err
	}
	cost = tracker.Stop()
	o.Obs.SetAnalytic(cost.PeakBytes, cost.FinalBytes)
	if err := core.SanityCheckScores(scores); err != nil {
		return 0, cost, err
	}
	return stats.AUC(scores, rep.Test.Anomalous), cost, nil
}

// meanCost averages durations and peaks over costs.
func meanCost(costs []resource.Cost) resource.Cost {
	if len(costs) == 0 {
		return resource.Cost{}
	}
	var out resource.Cost
	var peakSum int64
	for _, c := range costs {
		out.Wall += c.Wall
		out.CPU += c.CPU
		peakSum += c.PeakBytes
	}
	n := time.Duration(len(costs))
	out.Wall /= n
	out.CPU /= n
	out.PeakBytes = peakSum / int64(len(costs))
	return out
}

// fullTermsRun is the Table II primitive: ordinary FRaC over all features.
func fullTermsRun(rep dataset.Replicate) func(ctx context.Context, cfg core.Config) ([]float64, error) {
	return func(ctx context.Context, cfg core.Config) ([]float64, error) {
		res, err := core.RunCtx(ctx, rep.Train, rep.Test, core.FullTerms(rep.Train.NumFeatures()), cfg)
		if err != nil {
			return nil, err
		}
		return res.Scores, nil
	}
}

func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
