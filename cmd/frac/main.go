// Command frac runs a FRaC variant on TSV data sets and reports anomaly
// scores (and AUC when the test set is labeled).
//
// Two input modes:
//
//	frac -data pool.tsv -replicates 5 [flags]     # labeled pool, paper-style splits
//	frac -train a.tsv -test b.tsv [flags]         # fixed split
//
// Variants:
//
//	-variant full                      ordinary FRaC
//	-variant random-filter -p 0.05     one full-filtered run
//	-variant random-ensemble -p 0.05 -members 10
//	-variant entropy-filter -p 0.05
//	-variant partial-filter -p 0.05
//	-variant diverse -p 0.5
//	-variant diverse-ensemble -p 0.05 -members 10
//	-variant jl -dim 1024
//
// Model persistence (full FRaC only):
//
//	frac -train normals.tsv -save-model m.frac          # train and save
//	frac -load-model m.frac -test patients.tsv -scores  # score later
//
// Saved models carry a drift reference — the NS distribution on healthy
// data — that fracserve uses for model-health monitoring. By default the
// reference is captured from the training set; -drift-ref names a held-out
// normals TSV instead (a better estimate of serving-time NS), and
// -no-drift-ref skips capture entirely.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"frac"
	"frac/internal/obs"
	"frac/internal/obs/httpserve"
	"frac/internal/resource"
)

type options struct {
	variant  string
	p        float64
	members  int
	dim      int
	seed     uint64
	workers  int
	learners string
	scores   bool
	explain  explainOptions

	// obs is the run's telemetry recorder (nil unless a telemetry flag was
	// given) and manifest carrier; limit is the shared instrumented compute
	// pool all term-level work runs through when telemetry is on.
	obs      *obs.Recorder
	manifest *obs.Manifest
	limit    *frac.Limit
}

func main() {
	var (
		dataPath   = flag.String("data", "", "labeled pool TSV (replicate mode)")
		trainPath  = flag.String("train", "", "training TSV (fixed-split mode)")
		testPath   = flag.String("test", "", "test TSV (fixed-split mode)")
		replicates = flag.Int("replicates", 5, "replicates in pool mode")
		opt        options
	)
	flag.StringVar(&opt.variant, "variant", "full", "full | random-filter | random-ensemble | entropy-filter | partial-filter | diverse | diverse-ensemble | jl")
	flag.Float64Var(&opt.p, "p", 0.05, "filter keep-fraction / diverse inclusion probability")
	flag.IntVar(&opt.members, "members", 10, "ensemble size")
	flag.IntVar(&opt.dim, "dim", 1024, "JL projected dimension")
	flag.Uint64Var(&opt.seed, "seed", 1, "random seed")
	flag.IntVar(&opt.workers, "workers", 0, "parallel trainings (0 = GOMAXPROCS)")
	flag.StringVar(&opt.learners, "learners", "paper", "paper (SVR+tree) | tree")
	flag.BoolVar(&opt.scores, "scores", false, "print per-sample scores")
	flag.IntVar(&opt.explain.top, "explain-top", 0, "emit JSONL attributions (top K features) for flagged samples; 0 = off")
	flag.StringVar(&opt.explain.out, "explain-out", "", "JSONL destination for -explain-top output (default stdout)")
	flag.Float64Var(&opt.explain.quantile, "explain-quantile", 0.95, "NS quantile at or above which a sample is flagged for explanation (labeled anomalies are always flagged)")
	saveModel := flag.String("save-model", "", "train full FRaC on -train and save the model here")
	loadModel := flag.String("load-model", "", "load a saved model and score -test")
	driftRef := flag.String("drift-ref", "", "held-out normals TSV to capture the drift reference from (default: the training set)")
	noDriftRef := flag.Bool("no-drift-ref", false, "save the model without a drift reference")
	front := httpserve.Command{Tool: "frac", Unhashed: []string{"data", "train", "test", "scores", "save-model", "load-model"}}
	front.Parse()
	front.Run(opt.variant, opt.seed, func(ctx context.Context, sess *obs.Session) error {
		opt.obs, opt.manifest = sess.Rec, sess.Manifest
		// When telemetry is on, run all term-level work through one
		// instrumented compute pool so occupancy and queue-wait metrics cover
		// every variant and -save-model (the pool is sized exactly like the
		// worker bound, so scheduling — and therefore scores — is
		// unchanged). Scoring a loaded model acquires no pool, so
		// -load-model gets none.
		if opt.obs != nil && *loadModel == "" {
			opt.limit = frac.NewLimit(opt.workers).Instrument(opt.obs)
		}
		switch {
		case *saveModel != "":
			return trainAndSave(ctx, *trainPath, *saveModel, *driftRef, *noDriftRef, opt)
		case *loadModel != "":
			return loadAndScore(*loadModel, *testPath, opt)
		}
		return run(ctx, *dataPath, *trainPath, *testPath, *replicates, opt)
	})
}

// readDataset loads a TSV data set under the telemetry load phase, counting
// decoded bytes.
func readDataset(path string, rec *obs.Recorder) (*frac.Dataset, error) {
	span := rec.Start(obs.PhaseLoad)
	defer span.End()
	d, err := frac.ReadDatasetFile(path)
	if err == nil {
		if fi, statErr := os.Stat(path); statErr == nil {
			rec.Add(obs.CounterBytesDecoded, fi.Size())
		}
	}
	return d, err
}

// normalsOnly strips anomalous rows, as the FRaC protocol requires for
// training and reference data.
func normalsOnly(d *frac.Dataset) *frac.Dataset {
	if d.Anomalous == nil {
		return d
	}
	var rows []int
	for i, a := range d.Anomalous {
		if !a {
			rows = append(rows, i)
		}
	}
	d = d.SelectSamples(rows)
	d.Anomalous = nil
	return d
}

func trainAndSave(ctx context.Context, trainPath, modelPath, driftRefPath string, noDriftRef bool, opt options) error {
	if trainPath == "" {
		return fmt.Errorf("-save-model needs -train")
	}
	learners, err := learnersFor(opt.learners)
	if err != nil {
		return err
	}
	train, err := readDataset(trainPath, opt.obs)
	if err != nil {
		return err
	}
	train = normalsOnly(train)
	opt.describeDataset(train.Name, train.NumFeatures(), train.NumSamples(), 0, 0)
	cfg := frac.Config{Seed: opt.seed, Workers: opt.workers, Obs: opt.obs, Limit: opt.limit, Learners: learners}
	model, err := frac.TrainCtx(ctx, train, frac.FullTerms(train.NumFeatures()), cfg)
	if err != nil {
		return err
	}
	if err := captureDriftRef(ctx, model, train, driftRefPath, noDriftRef, opt); err != nil {
		return err
	}
	if err := writeFileAtomic(modelPath, func(w io.Writer) error { return frac.SaveModel(w, model) }); err != nil {
		return err
	}
	fmt.Printf("trained on %d samples x %d features; model saved to %s\n",
		train.NumSamples(), train.NumFeatures(), modelPath)
	return nil
}

// learnersFor returns the learners a -learners value names: the zero
// Learners, which Config reads as the paper's, or all trees.
func learnersFor(name string) (frac.Learners, error) {
	switch name {
	case "paper":
		return frac.Learners{}, nil
	case "tree":
		return frac.TreeLearnersDefault(), nil
	}
	return frac.Learners{}, fmt.Errorf("unknown -learners %q: want paper or tree", name)
}

// writeFileAtomic writes path through write so that a reader (a fracserve
// reload, say) sees either the old file or the complete new one, never a
// partial artifact: the bytes go to a temp file in the destination
// directory, which is synced, closed, and renamed over path. On any error
// the temp file is removed and an existing file at path is left untouched.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	// CreateTemp makes the file 0600; artifacts keep os.Create's usual mode.
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// captureDriftRef embeds the healthy NS distribution into the model. An
// explicit -drift-ref that cannot produce a reference is an error; the
// implicit capture-from-train default degrades to a warning (tiny training
// sets are legitimate, they just cannot be monitored).
func captureDriftRef(ctx context.Context, model *frac.Model, train *frac.Dataset, refPath string, skip bool, opt options) error {
	if skip {
		return nil
	}
	refSet := train
	if refPath != "" {
		d, err := readDataset(refPath, opt.obs)
		if err != nil {
			return err
		}
		refSet = normalsOnly(d)
	}
	if err := model.CaptureDriftReference(ctx, refSet); err != nil {
		if refPath != "" {
			return fmt.Errorf("-drift-ref %s: %w", refPath, err)
		}
		fmt.Fprintf(os.Stderr, "frac: model saved without drift reference: %v\n", err)
		return nil
	}
	ref := model.DriftReference()
	src := "training set"
	if refPath != "" {
		src = refPath
	}
	fmt.Printf("drift reference: %d samples from %s (NS mean=%.4f sd=%.4f, %d bins, %d quantile cells)\n",
		ref.N, src, ref.Mean, ref.SD, ref.NumBins(), ref.NumCells())
	return nil
}

func loadAndScore(modelPath, testPath string, opt options) error {
	if testPath == "" {
		return fmt.Errorf("-load-model needs -test")
	}
	f, err := os.Open(modelPath)
	if err != nil {
		return err
	}
	defer f.Close()
	span := opt.obs.Start(obs.PhaseLoad)
	model, err := frac.LoadModel(f)
	span.End()
	if err != nil {
		return err
	}
	if fi, statErr := f.Stat(); statErr == nil {
		opt.obs.Add(obs.CounterBytesDecoded, fi.Size())
	}
	test, err := readDataset(testPath, opt.obs)
	if err != nil {
		return err
	}
	opt.describeDataset(test.Name, test.NumFeatures(), test.NumSamples(), 0, test.NumSamples())
	scores := make([]float64, test.NumSamples())
	if opt.explain.top > 0 {
		// The explained pipeline produces the same totals bit for bit, and
		// additionally emits JSONL attributions for every flagged sample.
		if err := explainScoredModel(model, test, scores, opt.explain); err != nil {
			return err
		}
	} else if err := model.ScoreRowsInto(test.X, scores, frac.NewScoreWorkspace()); err != nil {
		return err
	}
	for i, v := range scores {
		fmt.Printf("sample %d: NS=%.4f\n", i, v)
	}
	if test.Anomalous != nil {
		fmt.Printf("AUC: %.4f\n", frac.AUC(scores, test.Anomalous))
	}
	return nil
}

// describeDataset fills the manifest's dataset block (telemetry off: no-op).
func (opt options) describeDataset(name string, features, samples, trainRows, testRows int) {
	if opt.manifest == nil {
		return
	}
	opt.manifest.Dataset = &obs.DatasetInfo{
		Name:      name,
		Features:  features,
		Samples:   samples,
		TrainRows: trainRows,
		TestRows:  testRows,
	}
}

func run(ctx context.Context, dataPath, trainPath, testPath string, replicates int, opt options) error {
	if err := checkVariant(opt); err != nil {
		return err
	}
	learners, err := learnersFor(opt.learners)
	if err != nil {
		return err
	}
	reps, err := loadReplicates(dataPath, trainPath, testPath, replicates, opt.seed, opt.obs)
	if err != nil {
		return err
	}
	if len(reps) > 0 {
		opt.describeDataset(reps[0].Train.Name, reps[0].Train.NumFeatures(),
			reps[0].Train.NumSamples()+reps[0].Test.NumSamples(),
			reps[0].Train.NumSamples(), reps[0].Test.NumSamples())
		if opt.manifest != nil {
			opt.manifest.Dataset.Replicates = len(reps)
		}
	}
	var aucs []float64
	var ew *explainWriter
	if opt.explain.top > 0 {
		if ew, err = newExplainWriter(opt.explain.out); err != nil {
			return err
		}
		defer ew.Close()
	}
	for i, rep := range reps {
		opt.obs.Annotate("replicate", strconv.Itoa(i))
		tracker := resource.NewTracker()
		cfg := frac.Config{Seed: opt.seed, Workers: opt.workers, Tracker: tracker,
			Obs: opt.obs, Limit: opt.limit, Learners: learners}
		res, scores, err := runVariant(ctx, rep, opt, cfg)
		if err != nil {
			return err
		}
		if ew != nil {
			// Ensembles combine member scores without a per-term result, and
			// JL results attribute in projected space where feature indices
			// no longer name schema columns.
			if res == nil || opt.variant == "jl" {
				fmt.Fprintf(os.Stderr, "frac: -explain-top: variant %q does not retain original-feature term scores; no explanations emitted\n", opt.variant)
			} else if err := explainResult(res, rep.Test, scores, i, opt.explain, ew); err != nil {
				return err
			}
		}
		cost := tracker.Stop()
		opt.obs.SetAnalytic(cost.PeakBytes, cost.FinalBytes)
		line := fmt.Sprintf("replicate %d: cpu=%v peak=%s",
			i, cost.CPU.Round(time.Millisecond), resource.FormatBytes(cost.PeakBytes))
		if rep.Test.Anomalous != nil {
			auc := frac.AUC(scores, rep.Test.Anomalous)
			aucs = append(aucs, auc)
			line = fmt.Sprintf("%s auc=%.4f", line, auc)
		}
		fmt.Println(line)
		if opt.scores {
			for s, v := range scores {
				fmt.Printf("  sample %d: NS=%.4f\n", s, v)
			}
		}
	}
	if len(aucs) > 1 {
		var sum float64
		for _, a := range aucs {
			sum += a
		}
		fmt.Printf("mean AUC over %d replicates: %.4f\n", len(aucs), sum/float64(len(aucs)))
	}
	return nil
}

func loadReplicates(dataPath, trainPath, testPath string, n int, seed uint64, rec *obs.Recorder) ([]frac.Replicate, error) {
	switch {
	case dataPath != "" && trainPath == "" && testPath == "":
		if n < 1 {
			return nil, fmt.Errorf("-replicates %d: want at least 1", n)
		}
		pool, err := readDataset(dataPath, rec)
		if err != nil {
			return nil, err
		}
		return frac.MakeReplicates(pool, n, 2.0/3, frac.NewRNG(seed).Stream("splits"))
	case dataPath == "" && trainPath != "" && testPath != "":
		train, err := readDataset(trainPath, rec)
		if err != nil {
			return nil, err
		}
		test, err := readDataset(testPath, rec)
		if err != nil {
			return nil, err
		}
		rep, err := frac.FixedSplit(train, test)
		if err != nil {
			return nil, err
		}
		return []frac.Replicate{rep}, nil
	default:
		return nil, fmt.Errorf("pass either -data, or both -train and -test")
	}
}

// checkVariant rejects a -variant that runVariant does not know, and a flag
// of the variant out of its range: -p must be in (0, 1] for the filter and
// diverse variants and their ensembles, -members at least 1 for the
// ensembles, and -dim at least 1 for jl.
func checkVariant(opt options) error {
	switch opt.variant {
	case "full":
	case "jl":
		if opt.dim < 1 {
			return fmt.Errorf("-dim %d: want at least 1", opt.dim)
		}
	case "random-ensemble", "diverse-ensemble":
		if opt.members < 1 {
			return fmt.Errorf("-members %d: want at least 1", opt.members)
		}
		fallthrough
	case "random-filter", "entropy-filter", "partial-filter", "diverse":
		if !(opt.p > 0 && opt.p <= 1) {
			return fmt.Errorf("-p %v: want a fraction in (0, 1]", opt.p)
		}
	default:
		return fmt.Errorf("unknown -variant %q: want full, random-filter, random-ensemble, entropy-filter, partial-filter, diverse, diverse-ensemble or jl", opt.variant)
	}
	return nil
}

// runVariant runs the selected variant and returns its scores, plus the
// per-term Result when the variant retains one (ensembles combine member
// scores and do not, so explanations are unavailable there).
func runVariant(ctx context.Context, rep frac.Replicate, opt options, cfg frac.Config) (*frac.Result, []float64, error) {
	src := frac.NewRNG(opt.seed).Stream("variant")
	switch opt.variant {
	case "full":
		res, err := frac.RunCtx(ctx, rep.Train, rep.Test, frac.FullTerms(rep.Train.NumFeatures()), cfg)
		if err != nil {
			return nil, nil, err
		}
		return res, res.Scores, nil
	case "random-filter":
		res, _, err := frac.RunFullFilteredCtx(ctx, rep.Train, rep.Test, frac.RandomFilter, opt.p, src, cfg)
		if err != nil {
			return nil, nil, err
		}
		return res, res.Scores, nil
	case "entropy-filter":
		res, _, err := frac.RunFullFilteredCtx(ctx, rep.Train, rep.Test, frac.EntropyFilter, opt.p, src, cfg)
		if err != nil {
			return nil, nil, err
		}
		return res, res.Scores, nil
	case "partial-filter":
		res, _, err := frac.RunPartialFilteredCtx(ctx, rep.Train, rep.Test, frac.RandomFilter, opt.p, src, cfg)
		if err != nil {
			return nil, nil, err
		}
		return res, res.Scores, nil
	case "random-ensemble":
		scores, err := frac.RunFilterEnsembleCtx(ctx, rep.Train, rep.Test, frac.RandomFilter, opt.p,
			frac.EnsembleSpec{Members: opt.members}, src, cfg)
		return nil, scores, err
	case "diverse":
		res, err := frac.RunDiverseCtx(ctx, rep.Train, rep.Test, opt.p, 1, src, cfg)
		if err != nil {
			return nil, nil, err
		}
		return res, res.Scores, nil
	case "diverse-ensemble":
		scores, err := frac.RunDiverseEnsembleCtx(ctx, rep.Train, rep.Test, opt.p,
			frac.EnsembleSpec{Members: opt.members}, src, cfg)
		return nil, scores, err
	case "jl":
		res, err := frac.RunJLCtx(ctx, rep.Train, rep.Test, frac.JLSpec{Dim: opt.dim}, src, cfg)
		if err != nil {
			return nil, nil, err
		}
		return res, res.Scores, nil
	default:
		return nil, nil, fmt.Errorf("unknown variant %q", opt.variant)
	}
}
