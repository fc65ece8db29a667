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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
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
		tele       obs.CLIFlags
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
	tele.Register(flag.CommandLine)
	flag.Parse()

	sess, err := tele.Start("frac", os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "frac: %v\n", err)
		os.Exit(1)
	}
	if sess == nil { // -version
		return
	}
	opt.obs = sess.Rec
	opt.manifest = sess.Manifest
	opt.manifest.Variant = opt.variant
	opt.manifest.Seed = opt.seed
	opt.manifest.ConfigHash = obs.FlagConfigHash(
		"variant", opt.variant,
		"p", strconv.FormatFloat(opt.p, 'g', -1, 64),
		"members", strconv.Itoa(opt.members),
		"dim", strconv.Itoa(opt.dim),
		"seed", strconv.FormatUint(opt.seed, 10),
		"workers", strconv.Itoa(opt.workers),
		"learners", opt.learners,
		"replicates", strconv.Itoa(*replicates),
		"drift-ref", *driftRef,
		"no-drift-ref", strconv.FormatBool(*noDriftRef),
		"explain-top", strconv.Itoa(opt.explain.top),
		"explain-out", opt.explain.out,
		"explain-quantile", strconv.FormatFloat(opt.explain.quantile, 'g', -1, 64),
	)
	// When telemetry is on, run all term-level work through one instrumented
	// compute pool so occupancy and queue-wait metrics cover every variant
	// (the pool is sized exactly like the worker bound, so scheduling — and
	// therefore scores — is unchanged).
	if opt.obs != nil {
		opt.limit = frac.NewLimit(opt.workers).Instrument(opt.obs)
	}

	srv, err := httpserve.Start(tele.DebugAddr, httpserve.Options{
		Recorder:  sess.Rec,
		Manifest:  sess.Manifest,
		PoolStats: opt.limit.Stats,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "frac: %v\n", err)
		os.Exit(1)
	}

	// Interrupt (^C) or SIGTERM cancels the run cooperatively: in-flight
	// model trainings finish, no new ones start, and the process exits with
	// a "canceled" diagnostic instead of being killed mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *saveModel != "":
		err = trainAndSave(ctx, *trainPath, *saveModel, *driftRef, *noDriftRef, opt)
	case *loadModel != "":
		err = loadAndScore(*loadModel, *testPath, opt)
	default:
		err = run(ctx, *dataPath, *trainPath, *testPath, *replicates, opt)
	}
	// Telemetry closes before exit so profiles flush and the metrics file,
	// journal, and trace export are complete even on a failed or cancelled
	// run (a cancelled run's documents carry "cancelled": true).
	if cerr := srv.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if cerr := sess.Close(err); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "frac: canceled")
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "frac: %v\n", err)
		os.Exit(1)
	}
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
	train, err := readDataset(trainPath, opt.obs)
	if err != nil {
		return err
	}
	train = normalsOnly(train)
	opt.describeDataset(train.Name, train.NumFeatures(), train.NumSamples(), 0, 0)
	cfg := frac.Config{Seed: opt.seed, Workers: opt.workers, Obs: opt.obs}
	if opt.learners == "tree" {
		cfg.Learners = frac.TreeLearnersDefault()
	}
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
			Obs: opt.obs, Limit: opt.limit}
		if opt.learners == "tree" {
			cfg.Learners = frac.TreeLearnersDefault()
		}
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
