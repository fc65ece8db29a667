package core

import (
	"bytes"
	"math"
	"os"
	"testing"

	"frac/internal/dataset"
	"frac/internal/rng"
	"frac/internal/tree"
)

// FuzzPersistLoad throws arbitrary bytes at the model decoder. Corrupt
// streams must be rejected with an error — never a panic, a hang, or an
// implausible allocation. Streams that do decode must yield a model that
// scores schema-conformant samples (including missing values) without
// panicking and that survives a re-encode/decode round trip with bit-
// identical scores.
func FuzzPersistLoad(f *testing.F) {
	// Seed with genuine encodings of both learner families, of a tree
	// model on mixed data with missing cells, and of a wide model with a
	// basis and Gram-routed terms, so the fuzzer starts from deep,
	// structurally valid streams; and with the version-3 tree fixture,
	// whose trees carry input blocks.
	train, _ := goldenTrainTest()
	mixed, _ := randomCatTrainTest(30, 1, 3, 3, 0.5, rng.New(0xf2))
	wide, _ := wideTrainTest()
	for _, c := range []struct {
		train *dataset.Dataset
		cfg   Config
	}{
		{train, Config{Seed: 1, Workers: 1}},
		{train, Config{Seed: 2, Workers: 1, KDEError: true, Learners: TreeLearners(tree.Params{MinLeaf: 1})}},
		{mixed, Config{Seed: 4, Workers: 1, Learners: TreeLearners(tree.Params{MaxDepth: 4})}},
		{wide, Config{Seed: 3, Workers: 1}},
	} {
		model, err := Train(c.train, FullTerms(c.train.NumFeatures()), c.cfg)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := model.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	v3, err := os.ReadFile("testdata/trees_v3.frac")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3)
	f.Add([]byte{})
	f.Add([]byte("FRAC-MODEL"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		sample := make([]float64, len(m.schema))
		withMissing := make([]float64, len(m.schema))
		for j, ft := range m.schema {
			if ft.Kind == dataset.Categorical {
				sample[j] = float64(j % ft.Arity)
			} else {
				sample[j] = 0.5 * float64(j)
			}
			withMissing[j] = sample[j]
			if j%3 == 0 {
				withMissing[j] = dataset.Missing
			}
		}
		s1 := m.Score(sample)
		_ = m.Score(withMissing)

		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatalf("re-encode decoded model: %v", err)
		}
		m2, err := ReadModel(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		s2 := m2.Score(sample)
		if math.Float64bits(s1) != math.Float64bits(s2) && !(math.IsNaN(s1) && math.IsNaN(s2)) {
			t.Fatalf("round trip changed score: %v (bits %016x) != %v (bits %016x)",
				s2, math.Float64bits(s2), s1, math.Float64bits(s1))
		}
	})
}
