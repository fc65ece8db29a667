// Benchmarks: one testing.B entry per exhibit of the paper's evaluation
// (Tables I–V, Figs. 1–3), plus micro-benchmarks for the compute kernels
// the variants trade off (per-model training, JL projection).
//
// Each exhibit bench runs its full regeneration pipeline at a coarse
// feature scale so `go test -bench=.` finishes in minutes; the fracbench
// command regenerates the exhibits at the reporting scale (see
// EXPERIMENTS.md).
package frac_test

import (
	"fmt"
	"testing"

	"frac"
	"frac/internal/eval"
)

// benchOptions is the coarse configuration shared by the exhibit benches.
func benchOptions() eval.Options {
	return eval.Options{
		Scale:      128,
		Replicates: 2,
		Seed:       1,
		JLRepeats:  3,
	}.WithDefaults()
}

func BenchmarkTable1Profiles(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if rows := eval.Table1(o); len(rows) != 8 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// table2Rows caches the full-run baseline across benches of one process.
var table2Rows []eval.Table2Row

func fullRuns(b *testing.B) []eval.Table2Row {
	b.Helper()
	if table2Rows == nil {
		rows, err := eval.Table2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		table2Rows = rows
	}
	return table2Rows
}

func BenchmarkTable2FullFRaC(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table2(o)
		if err != nil {
			b.Fatal(err)
		}
		table2Rows = rows
	}
}

func BenchmarkTable3Variants(b *testing.B) {
	b.ReportAllocs()
	full := fullRuns(b)
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Table3(full, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4Diverse(b *testing.B) {
	b.ReportAllocs()
	full := fullRuns(b)
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Table4(full, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Schizophrenia(b *testing.B) {
	b.ReportAllocs()
	full := fullRuns(b)
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Table5(full, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1Wiring(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		eval.Fig1(o)
	}
}

func BenchmarkFig2Preprocessing(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig2(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3JLSweep(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig3(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	b.ReportAllocs()
	full := fullRuns(b)
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Ablations(full, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselines(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Baselines(o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- kernel micro-benchmarks -------------------------------------------

// benchReplicate builds one biomarkers replicate at the bench scale.
func benchReplicate(b *testing.B) frac.Replicate {
	b.Helper()
	p, err := frac.ProfileByName("biomarkers")
	if err != nil {
		b.Fatal(err)
	}
	pool, err := p.Generate(128, 1)
	if err != nil {
		b.Fatal(err)
	}
	reps, err := frac.MakeReplicates(pool, 1, 2.0/3, frac.NewRNG(2))
	if err != nil {
		b.Fatal(err)
	}
	return reps[0]
}

func BenchmarkFullFRaCRun(b *testing.B) {
	b.ReportAllocs()
	rep := benchReplicate(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := frac.Run(rep.Train, rep.Test,
			frac.FullTerms(rep.Train.NumFeatures()), frac.Config{Seed: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreDataset isolates the scoring hot path: one trained model
// scoring the full test replicate repeatedly.
func BenchmarkScoreDataset(b *testing.B) {
	b.ReportAllocs()
	rep := benchReplicate(b)
	model, err := frac.Train(rep.Train, frac.FullTerms(rep.Train.NumFeatures()), frac.Config{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.ScoreDataset(rep.Test); err != nil {
			b.Fatal(err)
		}
	}
}

// snpReplicate builds one autism 1:32 replicate, the train-snp workload's
// shape: 211 training rows of 227 ternary SNP features.
func snpReplicate(b *testing.B) frac.Replicate {
	b.Helper()
	p, err := frac.ProfileByName("autism")
	if err != nil {
		b.Fatal(err)
	}
	pool, err := p.Generate(32, 1)
	if err != nil {
		b.Fatal(err)
	}
	reps, err := frac.MakeReplicates(pool, 1, 2.0/3, frac.NewRNG(1).StreamAt("split", 0))
	if err != nil {
		b.Fatal(err)
	}
	return reps[0]
}

// BenchmarkScoreDatasetSNP is BenchmarkScoreDataset for tree terms: an
// autism 1:32 model, every term a tree under the default learners, scoring
// its replicate's test set. The benchguard CI step does not gate it.
func BenchmarkScoreDatasetSNP(b *testing.B) {
	b.ReportAllocs()
	rep := snpReplicate(b)
	model, err := frac.Train(rep.Train, frac.FullTerms(rep.Train.NumFeatures()), frac.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.ScoreDataset(rep.Test); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreDatasetTelemetry is BenchmarkScoreDataset with an enabled
// recorder: the delta between the two pins the enabled-telemetry overhead on
// the scoring hot path (budget: ≤2%, DESIGN.md §9). Per-term spans run at the
// default 1-in-8 sampling, as real runs do.
func BenchmarkScoreDatasetTelemetry(b *testing.B) {
	b.ReportAllocs()
	rep := benchReplicate(b)
	rec := frac.NewRecorder()
	model, err := frac.Train(rep.Train, frac.FullTerms(rep.Train.NumFeatures()),
		frac.Config{Seed: 5, Obs: rec})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.ScoreDataset(rep.Test); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainTerm isolates single-term training (gather + CV folds +
// final fit) by training a one-term model.
func BenchmarkTrainTerm(b *testing.B) {
	b.ReportAllocs()
	rep := benchReplicate(b)
	terms := frac.FullTerms(rep.Train.NumFeatures())[:1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := frac.Train(rep.Train, terms, frac.Config{Seed: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// trainScaleDataset builds an all-real n x f training set with a shared
// latent factor, the shape where full-FRaC training cost is dominated by the
// f predictors-over-(f-1)-inputs.
func trainScaleDataset(n, f int, seed uint64) *frac.Dataset {
	schema := make(frac.Schema, f)
	for j := range schema {
		schema[j] = frac.Feature{Name: "g", Kind: frac.Real}
	}
	d := frac.NewDataset("train-scale", schema, n)
	src := frac.NewRNG(seed)
	for i := 0; i < n; i++ {
		base := src.Normal(0, 1)
		s := d.Sample(i)
		for j := range s {
			s[j] = base + src.Normal(0, 0.5)
		}
	}
	return d
}

// BenchmarkTrainDataset times full-FRaC training with the default learners.
// The f=N arms sweep feature scales on all-real data, so every term trains
// through the in-core SVR pipeline. The snp arm trains one autism 1:32
// replicate, the train-snp workload's shape (211 training rows, 227 ternary
// SNP features), so every term is a tree on the shared categorical design.
// The benchguard CI step compares these timings against the committed
// BENCH_results.json baseline.
func BenchmarkTrainDataset(b *testing.B) {
	for _, f := range []int{64, 256, 1024} {
		train := trainScaleDataset(32, f, 7)
		terms := frac.FullTerms(f)
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				model, err := frac.Train(train, terms, frac.Config{Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
				if model.NumTerms() != f {
					b.Fatalf("%d terms", model.NumTerms())
				}
			}
		})
	}
	b.Run("snp", func(b *testing.B) {
		train := snpReplicate(b).Train
		terms := frac.FullTerms(train.NumFeatures())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			model, err := frac.Train(train, terms, frac.Config{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if model.NumTerms() != len(terms) {
				b.Fatalf("%d terms", model.NumTerms())
			}
		}
	})
}

func BenchmarkFilteredRun(b *testing.B) {
	b.ReportAllocs()
	rep := benchReplicate(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := frac.RunFullFiltered(rep.Train, rep.Test, frac.RandomFilter, 0.05,
			frac.NewRNG(uint64(i)), frac.Config{Seed: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiverseRun(b *testing.B) {
	b.ReportAllocs()
	rep := benchReplicate(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := frac.RunDiverse(rep.Train, rep.Test, 0.5, 1,
			frac.NewRNG(uint64(i)), frac.Config{Seed: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJLRun(b *testing.B) {
	b.ReportAllocs()
	rep := benchReplicate(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := frac.RunJL(rep.Train, rep.Test, frac.JLSpec{Dim: 16},
			frac.NewRNG(uint64(i)), frac.Config{Seed: 5}); err != nil {
			b.Fatal(err)
		}
	}
}
