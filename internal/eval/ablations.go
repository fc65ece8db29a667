package eval

import (
	"context"
	"fmt"

	"frac/internal/core"
	"frac/internal/dataset"
	"frac/internal/jl"
	"frac/internal/rng"
	"frac/internal/svm"
	"frac/internal/synth"
	"frac/internal/tree"
)

// AblationRow is one configuration's outcome in an ablation study.
type AblationRow struct {
	Study, Config      string
	AUCFrac, AUCFracSD float64
	TimeFrac, MemFrac  float64
}

// Ablations runs the design-choice studies DESIGN.md calls out, on one
// representative expression profile and (where relevant) the SNP profiles:
//
//   - partial vs full filtering (the paper dropped partial as "consistently
//     worse in time, space, and AUC preservation")
//   - JL matrix family: Gaussian vs Rademacher vs sparse Achlioptas
//   - ensemble combiner: median (paper) vs mean
//   - continuous error model: Gaussian (paper) vs KDE
//   - JL-space learner: linear SVR vs entropy-minimizing trees (the paper's
//     model/preprocessing-compatibility observation)
func Ablations(full []Table2Row, o Options) ([]AblationRow, error) {
	o = o.WithDefaults()
	fullByName := map[string]Table2Row{}
	for _, r := range full {
		fullByName[r.Dataset] = r
	}
	profile, err := synth.ProfileByName("biomarkers")
	if err != nil {
		return nil, err
	}
	base, ok := fullByName["biomarkers"]
	if !ok {
		return nil, fmt.Errorf("ablations: Table II lacks biomarkers")
	}

	var rows []AblationRow
	add := func(study string, specs ...VariantSpec) error {
		vr, err := RunVariants(profile, base, specs, o)
		if err != nil {
			return fmt.Errorf("ablation %s: %w", study, err)
		}
		for _, r := range vr {
			rows = append(rows, AblationRow{
				Study: study, Config: r.Variant,
				AUCFrac: r.AUCFrac, AUCFracSD: r.AUCFracSD,
				TimeFrac: r.TimeFrac, MemFrac: r.MemFrac,
			})
		}
		return nil
	}

	// 1. Partial vs full filtering.
	if err := add("filtering-mode", SingleRandomFilterSpec(), PartialFilterSpec()); err != nil {
		return nil, err
	}

	// 2. JL families.
	jlFamily := func(f jl.Family) VariantSpec {
		return VariantSpec{
			Name: "jl-" + f.String(),
			Run: func(ctx context.Context, rep dataset.Replicate, src *rng.Source, cfg core.Config, o Options) ([]float64, error) {
				res, err := core.RunJLCtx(ctx, rep.Train, rep.Test,
					core.JLSpec{Dim: o.ScaledJLDim(o.JLDim), Family: f}, src, cfg)
				if err != nil {
					return nil, err
				}
				return res.Scores, nil
			},
		}
	}
	if err := add("jl-family", jlFamily(jl.Gaussian), jlFamily(jl.Rademacher), jlFamily(jl.Achlioptas)); err != nil {
		return nil, err
	}

	// 3. Ensemble combiner.
	combiner := func(m core.CombineMethod) VariantSpec {
		return VariantSpec{
			Name: "combine-" + m.String(),
			Run: func(ctx context.Context, rep dataset.Replicate, src *rng.Source, cfg core.Config, o Options) ([]float64, error) {
				return core.RunFilterEnsembleCtx(ctx, rep.Train, rep.Test, core.RandomFilter, o.FilterP,
					core.EnsembleSpec{Members: o.EnsembleMembers, Combine: m}, src, cfg)
			},
		}
	}
	if err := add("ensemble-combiner", combiner(core.CombineMedian), combiner(core.CombineMean)); err != nil {
		return nil, err
	}

	// 4. Continuous error model (full wiring, Gaussian vs KDE surprisal).
	errModel := func(name string, kde bool) VariantSpec {
		return VariantSpec{
			Name: "error-" + name,
			Run: func(ctx context.Context, rep dataset.Replicate, src *rng.Source, cfg core.Config, o Options) ([]float64, error) {
				cfg.KDEError = kde
				res, _, err := core.RunFullFilteredCtx(ctx, rep.Train, rep.Test, core.RandomFilter, 0.25, src, cfg)
				if err != nil {
					return nil, err
				}
				return res.Scores, nil
			},
		}
	}
	if err := add("error-model", errModel("gaussian", false), errModel("kde", true)); err != nil {
		return nil, err
	}

	// 5. JL-space learner compatibility (paper §IV: entropy-minimizing
	// trees are not invariant under linear maps, so they underperform in
	// projected spaces).
	jlLearner := func(name string, learners core.Learners) VariantSpec {
		return VariantSpec{
			Name: "jl-learner-" + name,
			Run: func(ctx context.Context, rep dataset.Replicate, src *rng.Source, cfg core.Config, o Options) ([]float64, error) {
				cfg.Learners = learners
				res, err := core.RunJLCtx(ctx, rep.Train, rep.Test,
					core.JLSpec{Dim: o.ScaledJLDim(o.JLDim)}, src, cfg)
				if err != nil {
					return nil, err
				}
				return res.Scores, nil
			},
		}
	}
	if err := add("jl-learner",
		jlLearner("svr", core.MixedLearners(svm.SVRParams{C: 0.01}, tree.Params{})),
		jlLearner("tree", core.TreeLearners(tree.Params{}))); err != nil {
		return nil, err
	}

	printAblations(o, rows)
	return rows, nil
}

func printAblations(o Options, rows []AblationRow) {
	w := o.out()
	fprintf(w, "\nAblations (biomarkers profile; fractions of the full run)\n")
	fprintf(w, "%-20s %-24s %14s %8s %8s\n", "study", "config", "AUC % (sd)", "Time %", "Mem %")
	prev := ""
	for _, r := range rows {
		study := r.Study
		if study == prev {
			study = ""
		} else {
			prev = r.Study
		}
		fprintf(w, "%-20s %-24s %6.2f (%.2f) %8.3f %8.3f\n",
			study, r.Config, r.AUCFrac, r.AUCFracSD, r.TimeFrac, r.MemFrac)
	}
}
