package eval

import (
	"context"
	"fmt"

	"frac/internal/core"
	"frac/internal/dataset"
	"frac/internal/resource"
	"frac/internal/rng"
	"frac/internal/stats"
	"frac/internal/synth"
)

// Table5Row is one method's result on the schizophrenia construction: raw
// AUC (the full run was never executed, as in the paper) with time/memory
// as fractions of the Table II extrapolation.
type Table5Row struct {
	Method            string
	AUC, AUCSD        float64
	HasSD             bool
	TimeFrac, MemFrac float64
}

// Table5 reproduces the schizophrenia table: entropy filtering, the random
// filter ensemble, and JL pre-projection at three growing dimensions
// (paper: 1024/2048/4096; scaled by Options.Scale).
func Table5(full []Table2Row, o Options) ([]Table5Row, error) {
	o = o.WithDefaults()
	var base resource.Cost
	for _, r := range full {
		if r.Dataset == "schizophrenia" {
			base = r.Cost
		}
	}
	if base.CPU == 0 {
		return nil, fmt.Errorf("table5: Table II lacks the extrapolated schizophrenia row")
	}
	p, err := synth.ProfileByName("schizophrenia")
	if err != nil {
		return nil, err
	}
	reps, err := replicatesFor(p, o)
	if err != nil {
		return nil, err
	}
	rep := reps[0]

	var rows []Table5Row

	// Entropy filtering: deterministic given the training set — one run.
	entAUC, entCost, err := runScored(o.ctx(), p, o, rep, func(ctx context.Context, cfg core.Config) ([]float64, error) {
		res, _, err := core.RunFullFilteredCtx(ctx, rep.Train, rep.Test, core.EntropyFilter, o.FilterP,
			rng.New(o.Seed).Stream("t5-entropy"), cfg)
		if err != nil {
			return nil, err
		}
		return res.Scores, nil
	})
	if err != nil {
		return nil, fmt.Errorf("table5 entropy: %w", err)
	}
	tf, mf := entCost.Frac(base)
	rows = append(rows, Table5Row{Method: "Entropy Filtering", AUC: entAUC, TimeFrac: tf, MemFrac: mf})

	// Random filter ensemble: repeated with independent subsets for an sd.
	const randomRepeats = 3
	var randAgg stats.Welford
	var randCosts []resource.Cost
	for i := 0; i < randomRepeats; i++ {
		auc, cost, err := runScored(o.ctx(), p, o, rep, func(ctx context.Context, cfg core.Config) ([]float64, error) {
			return core.RunFilterEnsembleCtx(ctx, rep.Train, rep.Test, core.RandomFilter, o.FilterP,
				core.EnsembleSpec{Members: o.EnsembleMembers},
				rng.New(o.Seed).StreamN("t5-random", i), cfg)
		})
		if err != nil {
			return nil, fmt.Errorf("table5 random %d: %w", i, err)
		}
		randAgg.Add(auc)
		randCosts = append(randCosts, cost)
	}
	tf, mf = meanCost(randCosts).Frac(base)
	rows = append(rows, Table5Row{
		Method: "Ensemble of Random Filtering",
		AUC:    randAgg.Mean(), AUCSD: randAgg.StdDev(), HasSD: true,
		TimeFrac: tf, MemFrac: mf,
	})

	// JL at growing dimensions, JLRepeats independent projections each.
	for _, paperDim := range []int{1024, 2048, 4096} {
		dim := o.ScaledJLDim(paperDim)
		auc, sd, cost, err := jlPoint(p, o, rep, dim, o.JLRepeats)
		if err != nil {
			return nil, fmt.Errorf("table5 jl %d: %w", dim, err)
		}
		tf, mf = cost.Frac(base)
		rows = append(rows, Table5Row{
			Method: fmt.Sprintf("JL, %d comps (paper %d)", dim, paperDim),
			AUC:    auc, AUCSD: sd, HasSD: true,
			TimeFrac: tf, MemFrac: mf,
		})
	}
	printTable5(o, rows)
	return rows, nil
}

// jlPoint runs `repeats` independent JL projections at one dimension and
// aggregates AUC and cost — the primitive behind both Table V's JL rows and
// Fig. 3's data points. SNP-profile JL runs keep the profile's decision
// trees (configFor) in the projected space, matching the paper's setup (and
// its observation that trees are not invariant under linear maps).
func jlPoint(p synth.Profile, o Options, rep dataset.Replicate, dim, repeats int) (mean, sd float64, cost resource.Cost, err error) {
	var agg stats.Welford
	var costs []resource.Cost
	for i := 0; i < repeats; i++ {
		auc, c, err := runScored(o.ctx(), p, o, rep, func(ctx context.Context, cfg core.Config) ([]float64, error) {
			res, err := core.RunJLCtx(ctx, rep.Train, rep.Test, core.JLSpec{Dim: dim},
				rng.New(o.Seed).StreamN(fmt.Sprintf("jl-%s-%d", p.Name, dim), i), cfg)
			if err != nil {
				return nil, err
			}
			return res.Scores, nil
		})
		if err != nil {
			return 0, 0, resource.Cost{}, err
		}
		agg.Add(auc)
		costs = append(costs, c)
	}
	return agg.Mean(), agg.StdDev(), meanCost(costs), nil
}

func printTable5(o Options, rows []Table5Row) {
	w := o.out()
	fprintf(w, "\nTable V — schizophrenia (raw AUC; time/mem vs extrapolated full run)\n")
	fprintf(w, "%-36s %14s %8s %8s\n", "method", "AUC (sd)", "Time %", "Mem %")
	for _, r := range rows {
		aucStr := fmt.Sprintf("%.2f (N/A)", r.AUC)
		if r.HasSD {
			aucStr = fmt.Sprintf("%.2f (%.2f)", r.AUC, r.AUCSD)
		}
		fprintf(w, "%-36s %14s %8.3f %8.3f\n", r.Method, aucStr, r.TimeFrac, r.MemFrac)
	}
}

// Fig3Point is one data point of Fig. 3: the JL dimension sweep on the
// schizophrenia data set.
type Fig3Point struct {
	Dim        int
	PaperDim   int
	AUC, AUCSD float64
}

// Fig3 sweeps the JL projected dimension on the schizophrenia construction,
// averaging JLRepeats independent projections per dimension, reproducing the
// paper's "projected d vs AUC" series (rising AUC with d).
func Fig3(o Options) ([]Fig3Point, error) {
	o = o.WithDefaults()
	p, err := synth.ProfileByName("schizophrenia")
	if err != nil {
		return nil, err
	}
	reps, err := replicatesFor(p, o)
	if err != nil {
		return nil, err
	}
	rep := reps[0]
	var pts []Fig3Point
	for _, paperDim := range []int{256, 512, 1024, 2048, 4096} {
		dim := o.ScaledJLDim(paperDim)
		mean, sd, _, err := jlPoint(p, o, rep, dim, o.JLRepeats)
		if err != nil {
			return nil, fmt.Errorf("fig3 dim %d: %w", dim, err)
		}
		pts = append(pts, Fig3Point{Dim: dim, PaperDim: paperDim, AUC: mean, AUCSD: sd})
	}
	w := o.out()
	fprintf(w, "\nFig. 3 — JL projected dimension vs AUC (schizophrenia, %d projections/point)\n", o.JLRepeats)
	fprintf(w, "%8s %10s %8s %8s\n", "dim", "paper dim", "AUC", "sd")
	for _, pt := range pts {
		fprintf(w, "%8d %10d %8.3f %8.3f\n", pt.Dim, pt.PaperDim, pt.AUC, pt.AUCSD)
	}
	renderFig3Chart(o, pts)
	return pts, nil
}

// renderFig3Chart draws the Fig. 3 series as a text chart: one column per
// dimension, 'o' at the mean AUC, '|' spanning mean ± sd.
func renderFig3Chart(o Options, pts []Fig3Point) {
	if len(pts) == 0 {
		return
	}
	lo, hi := 1.0, 0.0
	for _, pt := range pts {
		if v := pt.AUC - pt.AUCSD; v < lo {
			lo = v
		}
		if v := pt.AUC + pt.AUCSD; v > hi {
			hi = v
		}
	}
	lo -= 0.02
	hi += 0.02
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	const rows = 14
	step := (hi - lo) / rows
	if step <= 0 {
		return
	}
	w := o.out()
	fprintf(w, "\n")
	for r := rows; r >= 0; r-- {
		y := lo + float64(r)*step
		fprintf(w, "  %5.2f |", y)
		for _, pt := range pts {
			half := step / 2
			switch {
			case pt.AUC >= y-half && pt.AUC < y+half:
				fprintf(w, "    o    ")
			case pt.AUC-pt.AUCSD <= y && pt.AUC+pt.AUCSD >= y:
				fprintf(w, "    |    ")
			default:
				fprintf(w, "         ")
			}
		}
		fprintf(w, "\n")
	}
	fprintf(w, "        +")
	for range pts {
		fprintf(w, "---------")
	}
	fprintf(w, "\n         ")
	for _, pt := range pts {
		fprintf(w, "%5d    ", pt.Dim)
	}
	fprintf(w, "  (projected dimension)\n")
}
