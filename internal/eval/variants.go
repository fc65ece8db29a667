package eval

import (
	"context"
	"fmt"

	"frac/internal/core"
	"frac/internal/dataset"
	"frac/internal/rng"
	"frac/internal/synth"
)

// Variant names used across tables and benches.
const (
	VariantRandomEnsemble  = "random-filter-ensemble"
	VariantJL              = "jl"
	VariantEntropyFilter   = "entropy-filter"
	VariantDiverse         = "diverse"
	VariantDiverseEnsemble = "diverse-ensemble"
	VariantRandomFilter    = "random-filter" // single member (stability ablation)
	VariantPartialFilter   = "partial-filter"
)

// RandomFilterEnsembleSpec is the paper's §III.B.1 configuration: 10 full
// random-filtered FRaCs at p = .05, median-combined.
func RandomFilterEnsembleSpec() VariantSpec {
	return VariantSpec{
		Name: VariantRandomEnsemble,
		Run: func(ctx context.Context, rep dataset.Replicate, src *rng.Source, cfg core.Config, o Options) ([]float64, error) {
			return core.RunFilterEnsembleCtx(ctx, rep.Train, rep.Test, core.RandomFilter, o.FilterP,
				core.EnsembleSpec{Members: o.EnsembleMembers}, src, cfg)
		},
	}
}

// JLSpecVariant is the §III.B.3 configuration: JL pre-projection to the
// scaled 1024-dim space.
func JLSpecVariant() VariantSpec {
	return VariantSpec{
		Name: VariantJL,
		Run: func(ctx context.Context, rep dataset.Replicate, src *rng.Source, cfg core.Config, o Options) ([]float64, error) {
			res, err := core.RunJLCtx(ctx, rep.Train, rep.Test,
				core.JLSpec{Dim: o.ScaledJLDim(o.JLDim)}, src, cfg)
			if err != nil {
				return nil, err
			}
			return res.Scores, nil
		},
	}
}

// EntropyFilterSpec keeps the top-entropy 5% of features (single run).
func EntropyFilterSpec() VariantSpec {
	return VariantSpec{
		Name: VariantEntropyFilter,
		Run: func(ctx context.Context, rep dataset.Replicate, src *rng.Source, cfg core.Config, o Options) ([]float64, error) {
			res, _, err := core.RunFullFilteredCtx(ctx, rep.Train, rep.Test, core.EntropyFilter, o.FilterP, src, cfg)
			if err != nil {
				return nil, err
			}
			return res.Scores, nil
		},
	}
}

// DiverseSpec is the §III.B.2 single diverse run at p = 1/2.
func DiverseSpec() VariantSpec {
	return VariantSpec{
		Name: VariantDiverse,
		Run: func(ctx context.Context, rep dataset.Replicate, src *rng.Source, cfg core.Config, o Options) ([]float64, error) {
			res, err := core.RunDiverseCtx(ctx, rep.Train, rep.Test, o.DiverseP, 1, src, cfg)
			if err != nil {
				return nil, err
			}
			return res.Scores, nil
		},
	}
}

// DiverseEnsembleSpec is the §III.B.2 ensemble: 10 diverse runs at p = 1/20.
func DiverseEnsembleSpec() VariantSpec {
	return VariantSpec{
		Name: VariantDiverseEnsemble,
		Run: func(ctx context.Context, rep dataset.Replicate, src *rng.Source, cfg core.Config, o Options) ([]float64, error) {
			return core.RunDiverseEnsembleCtx(ctx, rep.Train, rep.Test, o.DiverseEnsembleP,
				core.EnsembleSpec{Members: o.EnsembleMembers}, src, cfg)
		},
	}
}

// SingleRandomFilterSpec is a lone filtered run (no ensemble): the unstable
// configuration the paper moved away from, kept for the stability ablation.
func SingleRandomFilterSpec() VariantSpec {
	return VariantSpec{
		Name: VariantRandomFilter,
		Run: func(ctx context.Context, rep dataset.Replicate, src *rng.Source, cfg core.Config, o Options) ([]float64, error) {
			res, _, err := core.RunFullFilteredCtx(ctx, rep.Train, rep.Test, core.RandomFilter, o.FilterP, src, cfg)
			if err != nil {
				return nil, err
			}
			return res.Scores, nil
		},
	}
}

// PartialFilterSpec is partial filtering (models only for kept targets,
// trained on all features) — the configuration the paper found "consistently
// worse in time, space, and AUC preservation", kept for the ablation bench.
func PartialFilterSpec() VariantSpec {
	return VariantSpec{
		Name: VariantPartialFilter,
		Run: func(ctx context.Context, rep dataset.Replicate, src *rng.Source, cfg core.Config, o Options) ([]float64, error) {
			res, _, err := core.RunPartialFilteredCtx(ctx, rep.Train, rep.Test, core.RandomFilter, o.FilterP, src, cfg)
			if err != nil {
				return nil, err
			}
			return res.Scores, nil
		},
	}
}

// Table3 runs the random-filter ensemble, JL, and entropy filtering over the
// six expression profiles plus autism, reporting fractions of the Table II
// full runs (the paper's Table III layout).
func Table3(full []Table2Row, o Options) ([]VariantRow, error) {
	return variantTable("Table III", full, o,
		[]VariantSpec{RandomFilterEnsembleSpec(), JLSpecVariant(), EntropyFilterSpec()})
}

// Table4 runs diverse and diverse-ensemble over the same profiles (the
// paper's Table IV).
func Table4(full []Table2Row, o Options) ([]VariantRow, error) {
	return variantTable("Table IV", full, o,
		[]VariantSpec{DiverseSpec(), DiverseEnsembleSpec()})
}

func variantTable(title string, full []Table2Row, o Options, specs []VariantSpec) ([]VariantRow, error) {
	o = o.WithDefaults()
	fullByName := map[string]Table2Row{}
	for _, r := range full {
		fullByName[r.Dataset] = r
	}
	var rows []VariantRow
	for _, p := range synth.Compendium() {
		if p.Confounded {
			continue // schizophrenia appears in Table V only
		}
		fullRow, ok := fullByName[p.Name]
		if !ok {
			return nil, fmt.Errorf("%s: no full-run row for %s", title, p.Name)
		}
		vr, err := RunVariants(p, fullRow, specs, o)
		if err != nil {
			return nil, err
		}
		rows = append(rows, vr...)
	}
	printVariantTable(title, o, specs, rows)
	return rows, nil
}

func printVariantTable(title string, o Options, specs []VariantSpec, rows []VariantRow) {
	w := o.out()
	fprintf(w, "\n%s — fractions of the full run (AUC %% (sd) | Time %% | Mem %%)\n", title)
	fprintf(w, "%-15s", "data set")
	for _, s := range specs {
		fprintf(w, " | %-30s", s.Name)
	}
	fprintf(w, "\n")
	byDataset := map[string][]VariantRow{}
	var order []string
	for _, r := range rows {
		if _, seen := byDataset[r.Dataset]; !seen {
			order = append(order, r.Dataset)
		}
		byDataset[r.Dataset] = append(byDataset[r.Dataset], r)
	}
	sums := make([]struct{ auc, t, m float64 }, len(specs))
	for _, ds := range order {
		fprintf(w, "%-15s", ds)
		for si, s := range specs {
			for _, r := range byDataset[ds] {
				if r.Variant != s.Name {
					continue
				}
				fprintf(w, " | %.2f (%.2f) %6.3f %6.3f   ", r.AUCFrac, r.AUCFracSD, r.TimeFrac, r.MemFrac)
				sums[si].auc += r.AUCFrac
				sums[si].t += r.TimeFrac
				sums[si].m += r.MemFrac
			}
		}
		fprintf(w, "\n")
	}
	if len(order) > 0 {
		fprintf(w, "%-15s", "Avg")
		n := float64(len(order))
		for si := range specs {
			fprintf(w, " | %.2f        %6.3f %6.3f   ", sums[si].auc/n, sums[si].t/n, sums[si].m/n)
		}
		fprintf(w, "\n")
	}
}
