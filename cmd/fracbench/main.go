// Command fracbench regenerates the paper's evaluation exhibits over the
// synthetic compendium. Subcommands: table1, table2, table3, table4, table5,
// fig1, fig2, fig3, ablations, baselines, interpret, all.
//
// Example:
//
//	fracbench -scale 32 -replicates 5 all
//
// Each exhibit is timed honestly: -warmup discarded warmup passes followed
// by -iters measured passes, with min/median/mean wall time (and allocator
// traffic) written to BENCH_results.json alongside a run manifest and the
// per-variant time/memory fractions of full FRaC that Tables III–V report.
// Telemetry flags (-progress, -metrics-out, -journal-out, -trace-events-out,
// -debug-addr, -obs-term-sample, -pprof-cpu, -pprof-heap, -trace, -version)
// match the frac command.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"frac/internal/eval"
	"frac/internal/obs"
	"frac/internal/obs/httpserve"
)

// exhibitCost is one BENCH_results.json exhibit entry: wall-time statistics
// over the measured iterations plus the allocator traffic of the last one.
// ns_op is the median, the robust center the repo's perf trajectory tracks
// across PRs (it was the single-shot wall time before warmup existed).
type exhibitCost struct {
	Warmup      int    `json:"warmup"`
	Iters       int    `json:"iters"`
	NsOp        int64  `json:"ns_op"` // median of the measured iterations
	MinNs       int64  `json:"min_ns"`
	MeanNs      int64  `json:"mean_ns"`
	MaxNs       int64  `json:"max_ns"`
	AllocsPerOp uint64 `json:"allocs_op"`
	BytesPerOp  uint64 `json:"bytes_op"`
}

// variantFraction is one per-variant cost row: time and memory as fractions
// of the full-FRaC baseline, exactly as the paper's Tables III–V report.
type variantFraction struct {
	Table    string  `json:"table"`
	Dataset  string  `json:"dataset,omitempty"`
	Variant  string  `json:"variant"`
	AUCFrac  float64 `json:"auc_frac,omitempty"`
	RawAUC   float64 `json:"raw_auc,omitempty"`
	TimeFrac float64 `json:"time_frac"`
	MemFrac  float64 `json:"mem_frac"`
}

// benchDoc is the BENCH_results.json document.
type benchDoc struct {
	Manifest         *obs.Manifest          `json:"manifest,omitempty"`
	Exhibits         map[string]exhibitCost `json:"exhibits"`
	VariantFractions []variantFraction      `json:"variant_fractions,omitempty"`
	// GoBench holds the `go test -bench` ns/op baselines that the CI
	// regression gate compares against (maintained by `benchguard -update`,
	// not by fracbench — writeResults carries the section across
	// regenerations).
	GoBench map[string]float64 `json:"go_bench,omitempty"`
}

// bench carries the regeneration state: harness options, iteration policy,
// and the accumulating results document.
type bench struct {
	opts   eval.Options
	warmup int
	iters  int
	doc    benchDoc
}

// measured regenerates one exhibit warmup+iters times, timing each measured
// pass. Only the final pass writes table output (warmups and earlier
// iterations run quiet), so stdout shows each exhibit once while the
// statistics come from steady-state passes.
func (b *bench) measured(name string, fn func(o eval.Options) error) error {
	quiet := b.opts
	quiet.Out = io.Discard
	for w := 0; w < b.warmup; w++ {
		if err := fn(quiet); err != nil {
			return err
		}
	}
	iters := b.iters
	if iters < 1 {
		iters = 1
	}
	durations := make([]int64, 0, iters)
	var cost exhibitCost
	for it := 0; it < iters; it++ {
		o := quiet
		if it == iters-1 {
			o = b.opts // the final pass prints
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err := fn(o)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		durations = append(durations, elapsed.Nanoseconds())
		cost.AllocsPerOp = after.Mallocs - before.Mallocs
		cost.BytesPerOp = after.TotalAlloc - before.TotalAlloc
	}
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	cost.Warmup = b.warmup
	cost.Iters = iters
	cost.MinNs = durations[0]
	cost.MaxNs = durations[len(durations)-1]
	cost.NsOp = durations[len(durations)/2]
	var sum int64
	for _, d := range durations {
		sum += d
	}
	cost.MeanNs = sum / int64(len(durations))
	b.doc.Exhibits[name] = cost
	return nil
}

// recordVariantRows folds Table III/IV rows into the fractions section.
func (b *bench) recordVariantRows(table string, rows []eval.VariantRow) {
	for _, r := range rows {
		b.doc.VariantFractions = append(b.doc.VariantFractions, variantFraction{
			Table: table, Dataset: r.Dataset, Variant: r.Variant,
			AUCFrac: r.AUCFrac, RawAUC: r.RawAUC,
			TimeFrac: r.TimeFrac, MemFrac: r.MemFrac,
		})
	}
}

// recordTable5Rows folds the schizophrenia-scale rows into the fractions
// section (Table V reports method-level rows, not per-dataset ones).
func (b *bench) recordTable5Rows(rows []eval.Table5Row) {
	for _, r := range rows {
		b.doc.VariantFractions = append(b.doc.VariantFractions, variantFraction{
			Table: "table5", Variant: r.Method, RawAUC: r.AUC,
			TimeFrac: r.TimeFrac, MemFrac: r.MemFrac,
		})
	}
}

func (b *bench) writeResults(path string) error {
	if path == "" || len(b.doc.Exhibits) == 0 {
		return nil
	}
	if prev, err := os.ReadFile(path); err == nil {
		var old struct {
			Exhibits         map[string]exhibitCost `json:"exhibits"`
			VariantFractions []variantFraction      `json:"variant_fractions"`
			GoBench          map[string]float64     `json:"go_bench"`
		}
		if json.Unmarshal(prev, &old) == nil {
			b.doc.GoBench = old.GoBench
			// Exhibits not regenerated this run keep their prior entries, so
			// a partial regeneration (one table) never drops the rest of the
			// document.
			for name, cost := range old.Exhibits {
				if _, ok := b.doc.Exhibits[name]; !ok {
					b.doc.Exhibits[name] = cost
				}
			}
			if len(b.doc.VariantFractions) == 0 {
				b.doc.VariantFractions = old.VariantFractions
			}
		}
	}
	blob, err := json.MarshalIndent(b.doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func main() {
	b := &bench{doc: benchDoc{Exhibits: map[string]exhibitCost{}}}
	b.opts = eval.Options{Out: os.Stdout}
	flag.IntVar(&b.opts.Scale, "scale", 16, "divide the paper's feature counts by this factor")
	flag.IntVar(&b.opts.Replicates, "replicates", 5, "train/test replicates per data set")
	flag.Uint64Var(&b.opts.Seed, "seed", 1, "root random seed")
	flag.IntVar(&b.opts.Workers, "workers", 0, "parallel model trainings (0 = GOMAXPROCS)")
	flag.Float64Var(&b.opts.FilterP, "filter-p", 0.05, "full-filtering keep fraction")
	flag.IntVar(&b.opts.EnsembleMembers, "members", 10, "ensemble size")
	flag.Float64Var(&b.opts.DiverseP, "diverse-p", 0.5, "diverse inclusion probability")
	flag.Float64Var(&b.opts.DiverseEnsembleP, "diverse-ensemble-p", 1.0/20, "diverse ensemble member probability")
	flag.IntVar(&b.opts.JLDim, "jl-dim", 1024, "JL dimension at paper scale (divided by -scale)")
	flag.IntVar(&b.opts.JLRepeats, "jl-repeats", 10, "independent projections per JL point")
	flag.IntVar(&b.opts.SweepParallel, "sweep-parallel", 1,
		"concurrent variant-sweep cells (1 = sequential; AUC columns are identical at any value)")
	flag.IntVar(&b.warmup, "warmup", 1, "discarded warmup passes per exhibit (steady-state timing)")
	flag.IntVar(&b.iters, "iters", 3, "measured passes per exhibit (min/median/mean reported)")
	benchJSON := flag.String("bench-json", "BENCH_results.json",
		"write per-exhibit timing stats, variant cost fractions, and the run manifest to this file (empty disables)")
	front := httpserve.Command{Tool: "fracbench", Arg: "exhibit", ArgDefault: "all", Unhashed: []string{"bench-json"}}
	cmd := front.Parse()
	start := time.Now()
	// Interrupt (^C) or SIGTERM cancels the regeneration cooperatively:
	// in-flight cells finish, later exhibits are skipped.
	front.Run(cmd, b.opts.Seed, func(ctx context.Context, sess *obs.Session) error {
		b.opts.Ctx, b.opts.Obs, b.doc.Manifest = ctx, sess.Rec, sess.Manifest
		err := run(cmd, b)
		if werr := b.writeResults(*benchJSON); werr != nil && err == nil {
			err = fmt.Errorf("writing %s: %w", *benchJSON, werr)
		}
		return err
	})
	fmt.Fprintf(os.Stderr, "fracbench: %s completed in %v\n", cmd, time.Since(start).Round(time.Millisecond))
}

func run(cmd string, b *bench) error {
	if b.opts.Scale < 1 {
		return fmt.Errorf("-scale %d: want at least 1", b.opts.Scale)
	}
	needTable2 := func() (full []eval.Table2Row, err error) {
		err = b.measured("table2", func(o eval.Options) error {
			full, err = eval.Table2(o)
			return err
		})
		return full, err
	}
	table1 := func() error {
		return b.measured("table1", func(o eval.Options) error { eval.Table1(o); return nil })
	}
	fig1 := func() error {
		return b.measured("fig1", func(o eval.Options) error { eval.Fig1(o); return nil })
	}
	fig2 := func() error {
		return b.measured("fig2", func(o eval.Options) error { _, err := eval.Fig2(o); return err })
	}
	fig3 := func() error {
		return b.measured("fig3", func(o eval.Options) error { _, err := eval.Fig3(o); return err })
	}
	baselines := func() error {
		return b.measured("baselines", func(o eval.Options) error { _, err := eval.Baselines(o); return err })
	}
	interpret := func() error {
		return b.measured("interpret", func(o eval.Options) error { _, err := eval.Interpretation(o); return err })
	}
	table3 := func(full []eval.Table2Row) error {
		var rows []eval.VariantRow
		err := b.measured("table3", func(o eval.Options) error {
			var err error
			rows, err = eval.Table3(full, o)
			return err
		})
		if err == nil {
			b.recordVariantRows("table3", rows)
		}
		return err
	}
	table4 := func(full []eval.Table2Row) error {
		var rows []eval.VariantRow
		err := b.measured("table4", func(o eval.Options) error {
			var err error
			rows, err = eval.Table4(full, o)
			return err
		})
		if err == nil {
			b.recordVariantRows("table4", rows)
		}
		return err
	}
	table5 := func(full []eval.Table2Row) error {
		var rows []eval.Table5Row
		err := b.measured("table5", func(o eval.Options) error {
			var err error
			rows, err = eval.Table5(full, o)
			return err
		})
		if err == nil {
			b.recordTable5Rows(rows)
		}
		return err
	}
	ablations := func(full []eval.Table2Row) error {
		return b.measured("ablations", func(o eval.Options) error { _, err := eval.Ablations(full, o); return err })
	}
	switch cmd {
	case "table1":
		return table1()
	case "table2":
		_, err := needTable2()
		return err
	case "table3":
		full, err := needTable2()
		if err != nil {
			return err
		}
		return table3(full)
	case "table4":
		full, err := needTable2()
		if err != nil {
			return err
		}
		return table4(full)
	case "table5":
		full, err := needTable2()
		if err != nil {
			return err
		}
		return table5(full)
	case "ablations":
		full, err := needTable2()
		if err != nil {
			return err
		}
		return ablations(full)
	case "baselines":
		return baselines()
	case "interpret":
		return interpret()
	case "fig1":
		return fig1()
	case "fig2":
		return fig2()
	case "fig3":
		return fig3()
	case "all":
		if err := table1(); err != nil {
			return err
		}
		full, err := needTable2()
		if err != nil {
			return err
		}
		if err := table3(full); err != nil {
			return err
		}
		if err := table4(full); err != nil {
			return err
		}
		if err := table5(full); err != nil {
			return err
		}
		if err := fig1(); err != nil {
			return err
		}
		if err := fig2(); err != nil {
			return err
		}
		if err := fig3(); err != nil {
			return err
		}
		if err := ablations(full); err != nil {
			return err
		}
		if err := baselines(); err != nil {
			return err
		}
		return interpret()
	default:
		return fmt.Errorf("unknown subcommand %q (want table1..table5, fig1..fig3, ablations, baselines, interpret, all)", cmd)
	}
}
