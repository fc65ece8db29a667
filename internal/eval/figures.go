package eval

import (
	"frac/internal/core"
	"frac/internal/dataset"
	"frac/internal/encode"
	"frac/internal/jl"
	"frac/internal/rng"
)

// Fig1 renders the paper's Fig. 1 schematic as wiring matrices over an
// eight-feature example: which features each variant's predictors consider.
// Rows are predictors (labelled by target), columns are features; '#' marks
// "considered", '.' marks "ignored".
func Fig1(o Options) map[string][][]bool {
	o = o.WithDefaults()
	const f = 8
	src := rng.New(o.Seed).Stream("fig1")
	kept := src.Stream("filter").SampleK(f, 4)

	wirings := map[string][][]bool{
		"full":           core.WiringMatrix(core.FullTerms(f), f),
		"full-filter":    filteredWiring(kept, f),
		"partial-filter": core.WiringMatrix(core.PartialTerms(kept, f), f),
		"diverse":        core.WiringMatrix(core.DiverseTerms(f, 0.5, 1, src.Stream("diverse")), f),
	}
	w := o.out()
	fprintf(w, "Fig. 1 — variant wiring over %d features ('#': predictor considers feature)\n", f)
	for _, name := range []string{"full", "full-filter", "partial-filter", "diverse"} {
		fprintf(w, "\n%s:\n", name)
		for ti, row := range wirings[name] {
			fprintf(w, "  p%-2d ", ti)
			for _, on := range row {
				if on {
					fprintf(w, "#")
				} else {
					fprintf(w, ".")
				}
			}
			fprintf(w, "\n")
		}
	}
	return wirings
}

// filteredWiring expands a full-filter wiring back into original feature
// coordinates for display.
func filteredWiring(kept []int, f int) [][]bool {
	terms := core.FilteredTerms(kept)
	out := make([][]bool, len(terms))
	for ti, t := range terms {
		row := make([]bool, f)
		for _, in := range t.Inputs {
			row[kept[in]] = true // map working index back to original
		}
		out[ti] = row
	}
	return out
}

// Fig2Result carries the stages of the paper's Fig. 2 preprocessing
// illustration.
type Fig2Result struct {
	Sample    []float64
	OneHot    []float64
	Projected []float64
}

// Fig2 reproduces the paper's literal Fig. 2 example: a sample with four
// real features and two categorical features ({0,1,2} and {0,1,2,3}) is
// 1-hot encoded to 11 dimensions and JL-projected to 4.
func Fig2(o Options) (Fig2Result, error) {
	o = o.WithDefaults()
	schema := dataset.Schema{
		{Name: "r0", Kind: dataset.Real},
		{Name: "r1", Kind: dataset.Real},
		{Name: "r2", Kind: dataset.Real},
		{Name: "r3", Kind: dataset.Real},
		{Name: "c0", Kind: dataset.Categorical, Arity: 3},
		{Name: "c1", Kind: dataset.Categorical, Arity: 4},
	}
	d := dataset.New("fig2", schema, 1)
	sample := []float64{3.4, 0, -2, 0.6, 1, 2}
	copy(d.Sample(0), sample)
	if err := d.Validate(); err != nil {
		return Fig2Result{}, err
	}
	enc := encode.Fit(d)
	hot := enc.Encode(d.Sample(0), nil)
	t := jl.New(4, enc.Width(), jl.Gaussian, rng.New(o.Seed).Stream("fig2"))
	proj := t.Apply(hot, nil)

	w := o.out()
	fprintf(w, "Fig. 2 — 1-hot transform, concatenation, JL projection\n")
	fprintf(w, "data:      %v\n", sample)
	fprintf(w, "1-hot:     %v  (width %d)\n", hot, enc.Width())
	fprintf(w, "JL (4-d):  [")
	for i, v := range proj {
		if i > 0 {
			fprintf(w, ", ")
		}
		fprintf(w, "%.2f", v)
	}
	fprintf(w, "]\n")
	return Fig2Result{Sample: sample, OneHot: hot, Projected: proj}, nil
}
