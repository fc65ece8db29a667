// Package frac is the public API of the FRaC reproduction: the Feature
// Regression and Classification anomaly detector (Noto et al.) and the
// scalable variants of Cousins, Pietras & Slonim, "Scalable FRaC Variants:
// Anomaly Detection for Precision Medicine" (IPPS 2017).
//
// # The detector
//
// FRaC scores how anomalous a sample is against a population of normal
// training samples using normalized surprisal (NS): for every feature, a
// supervised model predicts that feature from the others; cross-validated
// error models convert the observed value's deviation into an information
// quantity; the feature's training entropy is subtracted; the terms sum.
// Higher NS = more anomalous.
//
//	train, _ := frac.ReadDatasetFile("normals.tsv")
//	model, _ := frac.Train(train, frac.FullTerms(train.NumFeatures()), frac.Config{})
//	score := model.Score(sample) // anomaly score in nats
//
// # Scalable variants
//
// Ordinary FRaC trains one model per feature over all other features —
// O(f²) work. The paper's variants cut this dramatically while preserving
// detection accuracy:
//
//	frac.RunFullFiltered    // train on a 5% feature subset (random or entropy-ranked)
//	frac.RunFilterEnsemble  // 10 random subsets, median-combined (the paper's headline method)
//	frac.RunDiverse         // per-feature random input subsets (p=1/2)
//	frac.RunDiverseEnsemble // 10 diverse runs at p=1/20
//	frac.RunJL              // 1-hot + Johnson–Lindenstrauss pre-projection
//
// # Data model
//
// Datasets are dense sample matrices with mixed real/categorical schemas
// and missing values (frac.Missing). Continuous features use linear SVR
// predictors with Gaussian error models; categorical features use decision
// trees with confusion-matrix error models — the paper's configuration.
// Synthetic expression and SNP generators equivalent to the paper's eight
// evaluation data sets live in the Compendium.
package frac

import (
	"context"
	"io"

	"frac/internal/core"
	"frac/internal/csax"
	"frac/internal/dataset"
	"frac/internal/jl"
	"frac/internal/obs"
	"frac/internal/parallel"
	"frac/internal/resource"
	"frac/internal/rng"
	"frac/internal/stats"
	"frac/internal/synth"
	"frac/internal/tree"
)

// Core data model re-exports.
type (
	// Dataset is a sample matrix with a schema and optional anomaly labels.
	Dataset = dataset.Dataset
	// Schema is an ordered feature list.
	Schema = dataset.Schema
	// Feature describes one column.
	Feature = dataset.Feature
	// Kind distinguishes real from categorical features.
	Kind = dataset.Kind
	// Replicate is one train/test split.
	Replicate = dataset.Replicate
)

// Feature kinds.
const (
	Real        = dataset.Real
	Categorical = dataset.Categorical
)

// Missing marks an undefined value inside a sample; terms whose target is
// missing contribute zero to NS, as in the paper's formula.
var Missing = dataset.Missing

// IsMissing reports whether a value is the missing marker.
func IsMissing(v float64) bool { return dataset.IsMissing(v) }

// Engine re-exports.
type (
	// Config parameterizes FRaC training (learners, CV folds, parallelism,
	// seed, resource tracker).
	Config = core.Config
	// Term is one summand of normalized surprisal: a predictor wiring.
	Term = core.Term
	// Model is a trained FRaC detector.
	Model = core.Model
	// Result carries per-term and total NS scores of a scored test set.
	Result = core.Result
	// Learners bundles the supervised models per feature kind.
	Learners = core.Learners
	// JLSpec configures JL pre-projection.
	JLSpec = core.JLSpec
	// EnsembleSpec configures ensembles (size, combiner).
	EnsembleSpec = core.EnsembleSpec
	// FilterMethod selects random vs entropy filtering.
	FilterMethod = core.FilterMethod
	// Cost is a run's resource bill (wall, CPU-sum, peak analytic bytes).
	Cost = resource.Cost
	// RNG is the deterministic splittable random source used throughout.
	RNG = rng.Source
	// Limit is a bounded compute pool shared by concurrent runs (set it as
	// Config.Limit so nested fan-outs cannot oversubscribe the machine).
	Limit = parallel.Limit
	// Recorder is the run-telemetry collector (set it as Config.Obs to get
	// phase spans, term counters, pool occupancy, and progress accounting;
	// nil disables telemetry with zero overhead). Telemetry observes only:
	// scores are bit-identical with it on or off.
	Recorder = obs.Recorder
	// RunMetrics is the structured telemetry snapshot a Recorder renders
	// (the run_metrics.json document).
	RunMetrics = obs.Metrics
)

// NewLimit returns a compute pool admitting n concurrent units of term-level
// work (< 1 means GOMAXPROCS).
func NewLimit(n int) *Limit { return parallel.NewLimit(n) }

// NewRecorder returns an enabled telemetry recorder (default per-term span
// sampling). Attach it via Config.Obs and pools via Limit.Instrument.
func NewRecorder() *Recorder { return obs.New() }

// Filter methods.
const (
	RandomFilter  = core.RandomFilter
	EntropyFilter = core.EntropyFilter
)

// JL projection families.
const (
	JLGaussian   = jl.Gaussian
	JLRademacher = jl.Rademacher
	JLAchlioptas = jl.Achlioptas
)

// NewRNG returns a deterministic random source rooted at seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// Train fits a FRaC model over the given term wiring on an all-normal
// training set. A training set that fails Dataset.Validate, such as a
// categorical cell that is not a label of its feature, is an error.
func Train(train *Dataset, terms []Term, cfg Config) (*Model, error) {
	return core.Train(train, terms, cfg)
}

// TrainCtx is Train with cooperative cancellation: when ctx is done,
// in-flight term trainings finish, no new ones start, and ctx.Err() is
// returned. Output for a given seed is bit-identical to Train's at every
// worker count.
func TrainCtx(ctx context.Context, train *Dataset, terms []Term, cfg Config) (*Model, error) {
	return core.TrainCtx(ctx, train, terms, cfg)
}

// Run trains over the wiring, scores the test set, and returns per-term and
// total scores with the run's resource cost.
func Run(train, test *Dataset, terms []Term, cfg Config) (*Result, error) {
	return core.Run(train, test, terms, cfg)
}

// RunCtx is Run with cooperative cancellation (TrainCtx semantics across
// both the training and scoring phases).
func RunCtx(ctx context.Context, train, test *Dataset, terms []Term, cfg Config) (*Result, error) {
	return core.RunCtx(ctx, train, test, terms, cfg)
}

// FullTerms wires ordinary FRaC: every feature predicted from all others.
func FullTerms(numFeatures int) []Term { return core.FullTerms(numFeatures) }

// DiverseTerms wires Diverse FRaC: each feature predicted from an
// independent Bernoulli(p) subset of the others.
func DiverseTerms(numFeatures int, p float64, predictorsPerFeature int, src *RNG) []Term {
	return core.DiverseTerms(numFeatures, p, predictorsPerFeature, src)
}

// RunFullFiltered runs full filtering at keep-fraction p, returning the
// result and the kept original feature indices.
func RunFullFiltered(train, test *Dataset, method FilterMethod, p float64, src *RNG, cfg Config) (*Result, []int, error) {
	return core.RunFullFiltered(train, test, method, p, src, cfg)
}

// RunFullFilteredCtx is RunFullFiltered with cooperative cancellation.
func RunFullFilteredCtx(ctx context.Context, train, test *Dataset, method FilterMethod, p float64, src *RNG, cfg Config) (*Result, []int, error) {
	return core.RunFullFilteredCtx(ctx, train, test, method, p, src, cfg)
}

// RunPartialFiltered runs partial filtering (models only for kept targets,
// trained on all features) — the paper's dropped configuration, kept for
// comparison.
func RunPartialFiltered(train, test *Dataset, method FilterMethod, p float64, src *RNG, cfg Config) (*Result, []int, error) {
	return core.RunPartialFiltered(train, test, method, p, src, cfg)
}

// RunPartialFilteredCtx is RunPartialFiltered with cooperative cancellation.
func RunPartialFilteredCtx(ctx context.Context, train, test *Dataset, method FilterMethod, p float64, src *RNG, cfg Config) (*Result, []int, error) {
	return core.RunPartialFilteredCtx(ctx, train, test, method, p, src, cfg)
}

// RunDiverse runs Diverse FRaC with inclusion probability p.
func RunDiverse(train, test *Dataset, p float64, predictorsPerFeature int, src *RNG, cfg Config) (*Result, error) {
	return core.RunDiverse(train, test, p, predictorsPerFeature, src, cfg)
}

// RunDiverseCtx is RunDiverse with cooperative cancellation.
func RunDiverseCtx(ctx context.Context, train, test *Dataset, p float64, predictorsPerFeature int, src *RNG, cfg Config) (*Result, error) {
	return core.RunDiverseCtx(ctx, train, test, p, predictorsPerFeature, src, cfg)
}

// RunFilterEnsemble runs an ensemble of independently filtered FRaCs and
// median-combines per-feature scores — the paper's "Ensemble of Random
// Filtering" when method is RandomFilter.
func RunFilterEnsemble(train, test *Dataset, method FilterMethod, p float64, spec EnsembleSpec, src *RNG, cfg Config) ([]float64, error) {
	return core.RunFilterEnsemble(train, test, method, p, spec, src, cfg)
}

// RunFilterEnsembleCtx is RunFilterEnsemble with cooperative cancellation
// and spec-controlled member concurrency (EnsembleSpec.Parallel); members
// run on a shared bounded compute pool and the deterministic reduction makes
// the output bit-identical at every concurrency level.
func RunFilterEnsembleCtx(ctx context.Context, train, test *Dataset, method FilterMethod, p float64, spec EnsembleSpec, src *RNG, cfg Config) ([]float64, error) {
	return core.RunFilterEnsembleCtx(ctx, train, test, method, p, spec, src, cfg)
}

// RunDiverseEnsemble runs an ensemble of diverse FRaCs.
func RunDiverseEnsemble(train, test *Dataset, p float64, spec EnsembleSpec, src *RNG, cfg Config) ([]float64, error) {
	return core.RunDiverseEnsemble(train, test, p, spec, src, cfg)
}

// RunDiverseEnsembleCtx is RunDiverseEnsemble with cooperative cancellation
// and spec-controlled member concurrency.
func RunDiverseEnsembleCtx(ctx context.Context, train, test *Dataset, p float64, spec EnsembleSpec, src *RNG, cfg Config) ([]float64, error) {
	return core.RunDiverseEnsembleCtx(ctx, train, test, p, spec, src, cfg)
}

// RunJL runs the JL pre-projection pipeline (1-hot encoding, random
// projection to spec.Dim, ordinary FRaC in the projected space).
func RunJL(train, test *Dataset, spec JLSpec, src *RNG, cfg Config) (*Result, error) {
	return core.RunJL(train, test, spec, src, cfg)
}

// RunJLCtx is RunJL with cooperative cancellation.
func RunJLCtx(ctx context.Context, train, test *Dataset, spec JLSpec, src *RNG, cfg Config) (*Result, error) {
	return core.RunJLCtx(ctx, train, test, spec, src, cfg)
}

// AUC evaluates anomaly scores against labels (higher score = more
// anomalous), the paper's accuracy metric.
func AUC(scores []float64, anomalous []bool) float64 {
	return stats.AUC(scores, anomalous)
}

// MakeReplicates builds train/test splits: trainFrac of the normals train,
// the rest plus all anomalies test (paper §III.A, trainFrac 2/3).
func MakeReplicates(d *Dataset, n int, trainFrac float64, src *RNG) ([]Replicate, error) {
	return dataset.MakeReplicates(d, n, trainFrac, src)
}

// FixedSplit builds a replicate from separate train and test sets (the
// schizophrenia construction).
func FixedSplit(train, test *Dataset) (Replicate, error) {
	return dataset.FixedSplit(train, test)
}

// ReadDataset parses the TSV interchange format.
func ReadDataset(r io.Reader) (*Dataset, error) { return dataset.ReadTSV(r) }

// ReadDatasetFile parses a TSV data set from a path.
func ReadDatasetFile(path string) (*Dataset, error) { return dataset.ReadFile(path) }

// WriteDataset serializes a data set as TSV.
func WriteDataset(w io.Writer, d *Dataset) error { return dataset.WriteTSV(w, d) }

// WriteDatasetFile serializes a data set to a path.
func WriteDatasetFile(path string, d *Dataset) error { return dataset.WriteFile(path, d) }

// Compendium profiles: synthetic equivalents of the paper's evaluation data
// sets (Table I).
type Profile = synth.Profile

// Compendium returns all eight profiles in Table I order.
func Compendium() []Profile { return synth.Compendium() }

// ProfileByName looks up a compendium profile.
func ProfileByName(name string) (Profile, error) { return synth.ProfileByName(name) }

// PaperLearners returns the paper's model configuration: linear SVR for
// continuous targets, decision trees for categorical targets.
func PaperLearners() Learners { return core.PaperLearners() }

// TreeLearnersDefault returns all-tree learners with default induction
// parameters (the paper's SNP configuration).
func TreeLearnersDefault() Learners { return core.TreeLearners(treeDefaultParams()) }

// treeDefaultParams gives the default tree induction parameters.
func treeDefaultParams() tree.Params { return tree.Params{} }

// NewDataset allocates an empty data set with n samples under the schema
// (cells zeroed; assign via Sample(i)).
func NewDataset(name string, schema Schema, n int) *Dataset {
	return dataset.New(name, schema, n)
}

// TermInfluence is one feature's contribution to anomaly/control score
// separation (interpretation layer; paper §IV).
type TermInfluence = core.TermInfluence

// RankInfluence ranks features by how strongly their predictive models
// separate anomalous from control samples in a scored result — the paper's
// "identify the molecular reasons" requirement.
func RankInfluence(res *Result, anomalous []bool) ([]TermInfluence, error) {
	return core.RankInfluence(res, anomalous)
}

// TopInfluential returns the k most influential original feature indices
// (the paper inspects its top-20 predictive SNP models this way).
func TopInfluential(res *Result, anomalous []bool, k int) ([]int, error) {
	return core.TopInfluential(res, anomalous, k)
}

// Enrichment returns hits and the hypergeometric tail probability of
// finding at least that many known-relevant features among the selected
// ones by chance — the paper's §IV enrichment analysis.
func Enrichment(selected []int, known map[int]bool, poolSize int) (hits int, pValue float64) {
	return core.Enrichment(selected, known, poolSize)
}

// RunBootstrapEnsemble runs the CSAX-style bootstrap over FRaC: each member
// trains on a bootstrap resample of the normals and members combine by
// per-feature median. Composes with any term wiring.
func RunBootstrapEnsemble(train, test *Dataset, terms []Term, members int, src *RNG, cfg Config) ([]float64, error) {
	return core.RunBootstrapEnsemble(train, test, terms, members, src, cfg)
}

// RunBootstrapEnsembleCtx is RunBootstrapEnsemble with cooperative
// cancellation and concurrent members.
func RunBootstrapEnsembleCtx(ctx context.Context, train, test *Dataset, terms []Term, members int, src *RNG, cfg Config) ([]float64, error) {
	return core.RunBootstrapEnsembleCtx(ctx, train, test, terms, members, src, cfg)
}

// CSAX-style characterization (paper ref 7): gene-set level explanation of
// individual anomalies via bootstrapped FRaC + enrichment.
type (
	// GeneSet is a named feature group for characterization.
	GeneSet = csax.GeneSet
	// Characterization explains one test sample: its NS plus gene sets
	// ranked by enrichment among its most surprising features.
	Characterization = csax.Characterization
	// CSAXConfig parameterizes characterization (bootstraps, thresholds).
	CSAXConfig = csax.Config
)

// Characterize runs bootstrapped FRaC over the wiring and explains each
// test sample by its enriched gene sets.
func Characterize(train, test *Dataset, terms []Term, sets []GeneSet, src *RNG, cfg CSAXConfig) ([]Characterization, error) {
	return csax.Characterize(train, test, terms, sets, src, cfg)
}

// SaveModel serializes a trained model (versioned binary format), so
// training and scoring can be separated — train once, persist, score new
// samples later. Every model Train builds serializes: its learners are the
// built-in SVR and trees, since custom learners are gone.
func SaveModel(w io.Writer, m *Model) error {
	_, err := m.WriteTo(w)
	return err
}

// LoadModel reads a model written by SaveModel.
func LoadModel(r io.Reader) (*Model, error) {
	return core.ReadModel(r)
}

// ScoreWorkspace is the reusable scratch state of the online scoring path
// (Model.ScoreRowsInto): a long-lived scorer — the fracserve daemon, or any
// embedder pushing many small batches through a loaded model — keeps one
// workspace per scoring worker and scores allocation-free in steady state.
// Scores are bit-identical to Model.ScoreDataset at any batch partitioning.
type ScoreWorkspace = core.ScoreWorkspace

// NewScoreWorkspace returns an empty scoring workspace (buffers grow on
// first use and are reused). Not safe for concurrent use — one per worker.
func NewScoreWorkspace() *ScoreWorkspace { return core.NewScoreWorkspace() }

// Attribution is one original feature's role in one sample's anomaly score:
// its signed summed NS contribution, the observed value, and what the
// feature's predictive model expected instead. Produced by
// Model.ScoreRowsExplainedInto; ranked by the same ordering RankInfluence
// uses, so per-sample and cohort "most influential" agree by construction.
type Attribution = core.Attribution

// ExplainWorkspace is the reusable scratch state of the per-sample
// explanation path (Model.ScoreRowsExplainedInto): capture matrices plus
// aggregation buffers that grow to the high-water batch shape and are
// reused, so explained scoring is allocation-free in steady state. Not safe
// for concurrent use — one per scoring worker.
type ExplainWorkspace = core.ExplainWorkspace

// NewExplainWorkspace returns an empty explanation workspace (buffers grow
// on first use and are reused).
func NewExplainWorkspace() *ExplainWorkspace { return core.NewExplainWorkspace() }

// SampleAttributions computes one sample's top-k feature attribution from a
// completed Run's per-term scores, with the same grouping and ordering as
// the live explainer and RankInfluence. Observed and Predicted are NaN (the
// per-term matrix does not retain them); callers holding the test set can
// fill Observed from it. k <= 0 means all features.
func SampleAttributions(res *Result, sample, k int) ([]Attribution, error) {
	return core.SampleAttributions(res, sample, k)
}
