package synth

import (
	"fmt"

	"frac/internal/dataset"
	"frac/internal/rng"
)

// Profile is one named data set of the paper's evaluation (Table I), with
// the paper's reported sizes and full-run reference results (Table II) and
// a generator producing a synthetic equivalent at a chosen feature scale.
type Profile struct {
	Name string

	// Paper Table I sizes.
	PaperFeatures, PaperNormal, PaperAnomaly int

	// Paper Table II full-run reference values (AUC mean/sd, CPU hours,
	// peak GB). Schizophrenia's time/mem are the paper's extrapolations;
	// its AUC is not available (PaperAUC < 0).
	PaperAUC, PaperAUCSD        float64
	PaperTimeHours, PaperMemGB  float64
	PaperEstimatedExtrapolation bool

	// SNP marks genotype profiles (ternary categorical features, tree
	// models); Confounded marks the two-population schizophrenia
	// construction (fixed split instead of replicates).
	SNP, Confounded bool
	// TestNormals is the confounded construction's held-out normal count.
	TestNormals int

	exprParams func(features int) ExpressionParams
	snpParams  func(features int) SNPParams
}

// ScaledFeatures returns the profile's feature count divided by scale
// (minimum 8). Scale 1 reproduces the paper's sizes.
func (p Profile) ScaledFeatures(scale int) int {
	if scale < 1 {
		scale = 1
	}
	f := p.PaperFeatures / scale
	if f < 8 {
		f = 8
	}
	return f
}

// Generate produces the labeled sample pool at the given feature scale.
// Confounded profiles must use GenerateSplit instead.
func (p Profile) Generate(scale int, seed uint64) (*dataset.Dataset, error) {
	if p.Confounded {
		return nil, fmt.Errorf("synth: profile %s uses a fixed split; call GenerateSplit", p.Name)
	}
	src := rng.New(seed).Stream("profile-" + p.Name)
	f := p.ScaledFeatures(scale)
	if p.SNP {
		return GenerateSNP(p.Name, p.snpParams(f), src)
	}
	return GenerateExpression(p.Name, p.exprParams(f), src)
}

// GenerateSplit produces the fixed train/test construction of a confounded
// profile.
func (p Profile) GenerateSplit(scale int, seed uint64) (train, test *dataset.Dataset, err error) {
	if !p.Confounded {
		return nil, nil, fmt.Errorf("synth: profile %s uses replicates; call Generate", p.Name)
	}
	src := rng.New(seed).Stream("profile-" + p.Name)
	f := p.ScaledFeatures(scale)
	return GenerateConfoundedSNP(p.Name, p.snpParams(f), p.TestNormals, src)
}

// expressionProfile builds an expression Profile from a parameter template.
// The template's difficulty knobs (DisruptFrac, DisruptLambda, NoiseSD, the
// noise-gene variance range) were calibrated so full-FRaC AUCs land near the
// paper's Table II values at the default harness scale. moduleFrac is the
// fraction of genes belonging to co-expression modules (most genes are
// predictable, as in real expression data; the rest are irrelevant noise
// genes); the template's ModuleSize fixes per-module gene counts, so module
// count grows with the feature dimension.
func expressionProfile(name string, features, normal, anomaly int, auc, aucSD, hours, gb float64,
	moduleFrac float64, template ExpressionParams) Profile {
	return Profile{
		Name:          name,
		PaperFeatures: features, PaperNormal: normal, PaperAnomaly: anomaly,
		PaperAUC: auc, PaperAUCSD: aucSD, PaperTimeHours: hours, PaperMemGB: gb,
		exprParams: func(f int) ExpressionParams {
			p := template
			p.Features, p.Normal, p.Anomaly = f, normal, anomaly
			if p.ModuleSize < 2 {
				p.ModuleSize = 32
			}
			p.Modules = int(moduleFrac * float64(f) / float64(p.ModuleSize))
			if p.Modules < 2 {
				p.Modules = 2
			}
			if p.Modules*p.ModuleSize > f {
				p.ModuleSize = f / p.Modules
				if p.ModuleSize < 2 {
					p.ModuleSize = 2
				}
			}
			return p
		},
	}
}

// Compendium returns the paper's eight evaluation data sets in Table I
// order. Expression difficulty knobs were calibrated against Table II's
// full-run AUC column; see EXPERIMENTS.md for measured values.
func Compendium() []Profile {
	// Expression difficulty is set per-sample via AnomalyDetectableFrac
	// (the fraction of anomalies carrying molecular dysregulation; the AUC
	// ceiling is frac + (1-frac)/2, shared by every variant — the paper's
	// "difficulty is inherent to the data set"). Dysregulation is strong
	// (DisruptLambda 1, DisruptShift 1.8) so the detectable anomalies stay
	// detectable under 5% filtering and JL projection. The noise-gene
	// variance range steers entropy filtering: high-variance irrelevant
	// genes crowd the top of the entropy ranking on the sets where the
	// paper found entropy filtering mediocre.
	return []Profile{
		expressionProfile("breast.basal", 3167, 56, 19, 0.73, 0.06, 1.02, 4.59, 0.80,
			ExpressionParams{ModuleSize: 24, DisruptFrac: 0.40, DisruptLambda: 1.0,
				DisruptShift: 1.8, AnomalyDetectableFrac: 0.46,
				NoiseSD: 0.60, NoiseGeneSDLow: 0.8, NoiseGeneSDHigh: 1.8}),
		expressionProfile("biomarkers", 19739, 74, 53, 0.88, 0.05, 58.21, 152.54, 0.80,
			ExpressionParams{ModuleSize: 32, DisruptFrac: 0.40, DisruptLambda: 1.0,
				DisruptShift: 1.8, AnomalyDetectableFrac: 0.76,
				NoiseSD: 0.60, NoiseGeneSDLow: 0.8, NoiseGeneSDHigh: 1.6}),
		expressionProfile("ethnic", 19739, 95, 96, 0.71, 0.03, 96.67, 195.11, 0.80,
			ExpressionParams{ModuleSize: 32, DisruptFrac: 0.40, DisruptLambda: 1.0,
				DisruptShift: 1.8, AnomalyDetectableFrac: 0.48,
				NoiseSD: 0.60, NoiseGeneSDLow: 0.8, NoiseGeneSDHigh: 2.4}),
		expressionProfile("bild", 20607, 48, 7, 0.84, 0.08, 36.51, 106.59, 0.80,
			ExpressionParams{ModuleSize: 32, DisruptFrac: 0.40, DisruptLambda: 1.0,
				DisruptShift: 1.8, AnomalyDetectableFrac: 0.75,
				NoiseSD: 0.60, NoiseGeneSDLow: 0.8, NoiseGeneSDHigh: 2.0}),
		expressionProfile("smokers2", 19739, 40, 39, 0.66, 0.04, 29.23, 82.57, 0.80,
			ExpressionParams{ModuleSize: 32, DisruptFrac: 0.40, DisruptLambda: 1.0,
				DisruptShift: 1.8, AnomalyDetectableFrac: 0.32,
				NoiseSD: 0.60, NoiseGeneSDLow: 0.8, NoiseGeneSDHigh: 1.8}),
		// hematopoiesis: concentrated high-variance signal with quiet noise
		// genes — the profile on which entropy filtering outperforms
		// (paper §IV).
		expressionProfile("hematopoiesis", 13322, 97, 91, 0.88, 0.02, 56.56, 90.69, 0.50,
			ExpressionParams{ModuleSize: 48, DisruptFrac: 0.40, DisruptLambda: 1.0,
				DisruptShift: 1.8, AnomalyDetectableFrac: 0.76,
				ModuleVarBoost: 1.7, NoiseSD: 0.60}),
		{
			Name:          "autism",
			PaperFeatures: 7267, PaperNormal: 317, PaperAnomaly: 228,
			PaperAUC: 0.50, PaperAUCSD: 0.03, PaperTimeHours: 188.40, PaperMemGB: 3.39,
			SNP: true,
			snpParams: func(f int) SNPParams {
				return SNPParams{
					Features: f, Normal: 317, Anomaly: 228,
					BlockSize: 10, LD: 0.75,
				}
			},
		},
		{
			Name:          "schizophrenia",
			PaperFeatures: 171763, PaperNormal: 280, PaperAnomaly: 54,
			PaperAUC: -1, PaperAUCSD: -1, PaperTimeHours: 44000, PaperMemGB: 148,
			PaperEstimatedExtrapolation: true,
			SNP:                         true, Confounded: true, TestNormals: 10,
			snpParams: func(f int) SNPParams {
				return SNPParams{
					Features: f, Normal: 280, Anomaly: 54,
					BlockSize: 20, LD: 0.75,
					// Background sites stay below the drifted sites'
					// [0.25, 0.35] frequency band, so the differentiated
					// sites are exactly the high-entropy ones (the paper's
					// HapMap ancestry confound: entropy filtering -> AUC 1.0).
					MAFLow: 0.05, MAFHigh: 0.22,
					// Drift mirrors frequencies across 0.5
					// (variance-preserving) and flips LD phase in a tenth of
					// the background, so randomly filtered models see
					// ancestry signal too (paper: random ensemble ~0.86) and
					// JL projections improve with dimension (paper Fig. 3).
					Confounded: true, DriftFrac: 0.05, DriftAmount: 0.35,
					BackgroundFlipFrac: 0.10,
				}
			},
		},
	}
}

// SNPParamsFor exposes an SNP profile's generator parameters at a given
// feature count (e.g. for regenerating the data with ground truth via
// GenerateConfoundedSNPWithTruth).
func (p Profile) SNPParamsFor(features int) (SNPParams, error) {
	if !p.SNP || p.snpParams == nil {
		return SNPParams{}, fmt.Errorf("synth: profile %s is not an SNP profile", p.Name)
	}
	return p.snpParams(features), nil
}

// ProfileByName finds a compendium profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Compendium() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("synth: unknown profile %q", name)
}
