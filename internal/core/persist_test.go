package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"frac/internal/binio"
	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/rng"
	"frac/internal/svm"
	"frac/internal/tree"
)

func roundTripModel(t *testing.T, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatalf("ReadModel: %v", err)
	}
	return got
}

func assertSameScores(t *testing.T, a, b *Model, test *dataset.Dataset) {
	t.Helper()
	for i := 0; i < test.NumSamples(); i++ {
		s1, s2 := a.Score(test.Sample(i)), b.Score(test.Sample(i))
		if math.Abs(s1-s2) > 1e-12 {
			t.Fatalf("sample %d: %v vs %v after round trip", i, s1, s2)
		}
	}
}

func TestPersistRealModel(t *testing.T) {
	train, test := tinyRealTrainTest()
	m, err := Train(train, FullTerms(2), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTripModel(t, m)
	assertSameScores(t, m, got, test)
}

func TestPersistKDEErrorModel(t *testing.T) {
	train, test := tinyRealTrainTest()
	m, err := Train(train, FullTerms(2), Config{Seed: 3, KDEError: true})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTripModel(t, m)
	assertSameScores(t, m, got, test)
}

func TestPersistCategoricalTreeModel(t *testing.T) {
	schema := dataset.Schema{
		{Name: "a", Kind: dataset.Categorical, Arity: 3},
		{Name: "b", Kind: dataset.Categorical, Arity: 3},
	}
	train := dataset.New("train", schema, 30)
	src := rng.New(5)
	for i := 0; i < 30; i++ {
		v := float64(src.IntN(3))
		train.Sample(i)[0] = v
		train.Sample(i)[1] = v
	}
	m, err := Train(train, FullTerms(2), Config{Seed: 3, Learners: TreeLearners(tree.Params{MinLeaf: 1})})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTripModel(t, m)
	test := dataset.New("test", schema, 3)
	copy(test.Sample(0), []float64{0, 0})
	copy(test.Sample(1), []float64{2, 1})
	copy(test.Sample(2), []float64{dataset.Missing, 2})
	assertSameScores(t, m, got, test)
}

func TestPersistMixedModel(t *testing.T) {
	schema := dataset.Schema{
		{Name: "r", Kind: dataset.Real},
		{Name: "c", Kind: dataset.Categorical, Arity: 2},
	}
	train := dataset.New("train", schema, 24)
	src := rng.New(7)
	for i := 0; i < 24; i++ {
		train.Sample(i)[0] = src.Norm()
		train.Sample(i)[1] = float64(i % 2)
	}
	m, err := Train(train, FullTerms(2), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTripModel(t, m)
	test := dataset.New("test", schema, 2)
	copy(test.Sample(0), []float64{0.5, 1})
	copy(test.Sample(1), []float64{-3, 0})
	assertSameScores(t, m, got, test)
}

func TestPersistMarginalFallback(t *testing.T) {
	train, test := tinyRealTrainTest()
	terms := []Term{{Target: 0, Orig: 0}, {Target: 1, Orig: 1}} // no inputs
	m, err := Train(train, terms, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTripModel(t, m)
	assertSameScores(t, m, got, test)
}

// TestPredictorTagsPinned pins the on-disk predictor tags: a saved model
// loads only while each predictor type keeps its number. Tag 4 is the
// reserved slot of a removed classifier; a stream carrying it must fail to
// load with an error that names the tag.
func TestPredictorTagsPinned(t *testing.T) {
	x := linalg.FromRows([][]float64{{0}, {1}, {2}, {3}})
	tag := func(encode func(w *binio.Writer) error) int {
		t.Helper()
		var buf bytes.Buffer
		if err := encode(binio.NewWriter(&buf)); err != nil {
			t.Fatal(err)
		}
		return binio.NewReader(&buf).Int()
	}
	reals := []struct {
		p    RealPredictor
		want int
	}{
		{constantReal{value: 1}, 0},
		{&imputedReal{model: &svm.SVR{W: []float64{1}}, means: []float64{0}, scales: []float64{1}}, 1},
		{tree.TrainRegressor(x, realInputs(1), []float64{0, 0, 1, 1}, tree.Params{MinLeaf: 1}), 2},
	}
	for _, c := range reals {
		if got := tag(func(w *binio.Writer) error { return encodeRealPredictor(w, c.p) }); got != c.want {
			t.Errorf("%T written with tag %d, want %d", c.p, got, c.want)
		}
	}
	cats := []struct {
		p    CatPredictor
		want int
	}{
		{constantCat{label: 1}, 3},
		{tree.TrainClassifier(x, realInputs(1), []int{0, 0, 1, 1}, 2, tree.Params{MinLeaf: 1}), 5},
	}
	for _, c := range cats {
		if got := tag(func(w *binio.Writer) error { return encodeCatPredictor(w, c.p) }); got != c.want {
			t.Errorf("%T written with tag %d, want %d", c.p, got, c.want)
		}
	}

	// A Gram-routed term's predictor has no RealPredictor to encode on its
	// own; its tag is pinned here.
	if tagGramSVR != 6 {
		t.Errorf("Gram-routed SVR tag is %d, want 6", tagGramSVR)
	}

	// A one-term categorical model whose term has no inputs ends with its
	// constantCat predictor (tag, label), the absent-drift-reference flag
	// and the checksum, one 8-byte word each; rewrite the tag to 4.
	schema := dataset.Schema{{Name: "c", Kind: dataset.Categorical, Arity: 2}}
	train := dataset.New("train", schema, 8)
	for i := 0; i < 8; i++ {
		train.Sample(i)[0] = float64(i % 2)
	}
	m, err := Train(train, []Term{{Target: 0, Orig: 0}}, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	at := len(blob) - 32
	if got := binio.NewReader(bytes.NewReader(blob[at:])).Int(); got != 3 {
		t.Fatalf("word at %d is %d, want the constant categorical tag 3", at, got)
	}
	blob[at] = 4
	_, err = ReadModel(bytes.NewReader(blob))
	if err == nil || !strings.Contains(err.Error(), "tag 4") {
		t.Errorf("stream with categorical tag 4: err = %v, want one naming tag 4", err)
	}
}

// TestReadModelChecksTreeInputs: a legacy tree's input block must describe
// the model's columns at its term's inputs. Flipping the kind, or the
// arity, of one input in the first tree block of the version-3 fixture
// (TestReadModelV3TreeFixture) makes ReadModel fail with an error that
// names the term, where a tree that disagrees with the model's schema
// would otherwise load and score.
func TestReadModelChecksTreeInputs(t *testing.T) {
	blob, err := os.ReadFile("testdata/trees_v3.frac")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadModel(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.terms[0].cat.(*tree.Classifier); !ok {
		t.Fatalf("term 0 predicts with %T, want a tree", m.terms[0].cat)
	}
	// Term 0's tree block follows the header (magic, version, schema) and
	// holds the model's features at its inputs; its first input is column
	// 1, a categorical feature, whose kind and arity words follow the
	// block's count and the feature's name.
	var head, block bytes.Buffer
	hw, bw := binio.NewWriter(&head), binio.NewWriter(&block)
	hw.String(modelMagic)
	hw.Int(3)
	dataset.EncodeSchema(hw, m.schema)
	dataset.EncodeSchema(bw, m.schema.Select(m.terms[0].term.Inputs))
	at := bytes.Index(blob[head.Len():], block.Bytes())
	if at < 0 || m.terms[0].term.Inputs[0] != 1 || m.schema[1].Kind != dataset.Categorical {
		t.Fatalf("no tree block of term 0 over categorical column 1 in the artifact")
	}
	kind := head.Len() + at + 8 + 8 + len(m.schema[1].Name)
	for _, c := range []struct {
		name string
		off  int
		v    byte
	}{{"kind", kind, byte(dataset.Real)}, {"arity", kind + 8, byte(m.schema[1].Arity + 1)}} {
		bad := bytes.Clone(blob)
		bad[c.off] = c.v
		if _, err := ReadModel(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "term 0:") {
			t.Errorf("tree block with a flipped %s: err = %v, want one naming term 0", c.name, err)
		}
	}
}

func TestReadModelRejectsGarbage(t *testing.T) {
	if _, err := ReadModel(strings.NewReader("not a model at all, definitely")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadModel(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestReadModelRejectsTruncation(t *testing.T) {
	train, _ := tinyRealTrainTest()
	m, err := Train(train, FullTerms(2), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, len(full) / 2, len(full) - 1} {
		if _, err := ReadModel(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncated model (%d of %d bytes) accepted", cut, len(full))
		}
	}
}

func TestWriteToRejectsCustomPredictor(t *testing.T) {
	train, _ := tinyRealTrainTest()
	// Build a model and splice in a non-serializable predictor.
	m, err := Train(train, FullTerms(2), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m.terms[0].real = customReal{}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err == nil {
		t.Error("custom predictor serialized without error")
	}
}

type customReal struct{}

func (customReal) PredictBatch(*linalg.Matrix, []float64) {}
func (customReal) Bytes() int64                           { return 0 }

// wideModel trains the wide fixture's full model: Gram-routed terms over a
// basis next to primal ones.
func wideModel(t *testing.T) (*Model, *dataset.Dataset) {
	t.Helper()
	train, test := wideTrainTest()
	m, err := Train(train, FullTerms(train.NumFeatures()), Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if m.basis == nil || countDual(m) == 0 || countDual(m) == len(m.terms) {
		t.Fatalf("wide model: %d of %d terms Gram-routed, basis %v", countDual(m), len(m.terms), m.basis != nil)
	}
	return m, test
}

// assertSameBits checks that two models give every sample the same
// contribution from every term, bit for bit.
func assertSameBits(t *testing.T, what string, a, b *Model, test *dataset.Dataset) {
	t.Helper()
	sa, err := a.ScoreDataset(test)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.ScoreDataset(test)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range sa.PerTerm.Data {
		if math.Float64bits(v) != math.Float64bits(sb.PerTerm.Data[i]) {
			t.Fatalf("%s: contribution %d is %v, want %v", what, i, sb.PerTerm.Data[i], v)
		}
	}
}

// TestPersistWideModel: a model with a basis and Gram-routed terms round
// trips through the version-3 artifact to the same terms, the same Bytes
// and bit-identical scores.
func TestPersistWideModel(t *testing.T) {
	m, test := wideModel(t)
	got := roundTripModel(t, m)
	if got.basis == nil || countDual(got) != countDual(m) {
		t.Fatalf("loaded model: %d Gram-routed terms, basis %v; trained %d", countDual(got), got.basis != nil, countDual(m))
	}
	if got.Bytes() != m.Bytes() {
		t.Errorf("loaded model Bytes %d, trained %d", got.Bytes(), m.Bytes())
	}
	assertSameBits(t, "round trip", m, got, test)
}

// TestReadModelChecksum: a version-3 stream ends with the CRC-32C of its
// body, so flipping any one byte of an artifact, the checksum included,
// fails ReadModel; a flip the body decoder cannot see, in the low bit of a
// dual predictor's yMean, fails on the checksum.
func TestReadModelChecksum(t *testing.T) {
	train := randomRealDataset("crc", 8, 11, 0, 0, rng.New(0xc2c))
	m, err := Train(train, FullTerms(train.NumFeatures()), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.basis == nil || m.terms[0].dual == nil {
		t.Fatal("the fixture must have a basis and a Gram-routed term 0")
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	if _, err := ReadModel(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	for at := range blob {
		for _, mask := range []byte{0x01, 0x80} {
			bad := bytes.Clone(blob)
			bad[at] ^= mask
			if _, err := ReadModel(bytes.NewReader(bad)); err == nil {
				t.Fatalf("byte %d of %d flipped by %#02x: the artifact still loads", at, len(blob), mask)
			}
		}
	}
	var word bytes.Buffer
	binio.NewWriter(&word).F64(m.terms[0].dual.yMean)
	at := bytes.Index(blob, word.Bytes())
	if at < 0 {
		t.Fatal("term 0's yMean is not in the artifact")
	}
	bad := bytes.Clone(blob)
	bad[at] ^= 0x01
	if _, err := ReadModel(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("the low bit of term 0's yMean flipped: err = %v, want a checksum error", err)
	}
}

// TestReadModelChecksBasis: the decoder holds a version-3 basis and its
// Gram-routed terms to the shape the dual form needs, naming what is
// wrong: a basis as wide as the schema, one dual value per basis row, a
// basis for every Gram-routed term, and inputs that are every feature but
// the target. A basis that claims more rows than the stream carries fails
// without allocating for the claim.
func TestReadModelChecksBasis(t *testing.T) {
	trained, _ := wideModel(t)
	g := 0
	for trained.terms[g].dual == nil {
		g++
	}
	f := len(trained.schema)
	for _, c := range []struct {
		name, want string
		edit       func(m *Model)
	}{
		{"narrow basis", "basis of", func(m *Model) {
			b := *m.basis
			b.means, b.scales = b.means[:f-1], b.scales[:f-1]
			b.z = &linalg.Matrix{Rows: b.z.Rows, Cols: f - 1, Data: b.z.Data[:b.z.Rows*(f-1)]}
			m.basis = &b
		}},
		{"short beta", "dual values", func(m *Model) {
			d := *m.terms[g].dual
			d.beta = d.beta[1:]
			m.terms[g].dual = &d
		}},
		{"no basis", "no basis", func(m *Model) { m.basis = nil }},
		{"inputs", "every other feature", func(m *Model) {
			m.terms[g].term.Inputs = m.terms[g].term.Inputs[1:]
		}},
	} {
		m := *trained
		m.terms = slices.Clone(trained.terms)
		c.edit(&m)
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadModel(&buf); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}

	// Claim 2^24 basis rows: the n word follows the header and the basis
	// flag, and the rows' length prefix follows n, f, the means and the
	// scales.
	var buf, head bytes.Buffer
	if _, err := trained.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	hw := binio.NewWriter(&head)
	hw.String(modelMagic)
	hw.Int(modelVersion)
	dataset.EncodeSchema(hw, trained.schema)
	blob, nAt := buf.Bytes(), head.Len()+8
	const rows = 1 << 24
	binary.LittleEndian.PutUint64(blob[nAt:], rows)
	binary.LittleEndian.PutUint64(blob[nAt+8*(4+2*f):], rows*uint64(f))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadModel(bytes.NewReader(blob))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a basis claiming 2^24 rows loaded")
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 8<<20 {
		t.Errorf("a basis claiming %d MB allocated %d MB", rows*8*f>>20, grown>>20)
	}
}

// TestReadModelV2WideFixture: testdata/wide_v2.frac is a wide model (10
// rows, 18 features, 14 terms on the Gram route) saved as version 2 by the
// code before the dual form, which stored every SVR term's weights;
// testdata/wide_v2.scores holds, one sample a line, the bits of the total
// that code scored and of the sample's cells. The artifact still loads,
// with no basis, and scores every sample to exactly those bits, through
// ScoreRowsInto and ScoreDataset alike, before and after a version-3 round
// trip.
func TestReadModelV2WideFixture(t *testing.T) {
	blob, err := os.ReadFile("testdata/wide_v2.frac")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadModel(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if m.basis != nil || countDual(m) != 0 {
		t.Fatalf("a version-2 artifact loaded with a basis or %d Gram-routed terms", countDual(m))
	}
	lines, err := os.ReadFile("testdata/wide_v2.scores")
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	test := &dataset.Dataset{Name: "wide-v2", Schema: m.schema, X: linalg.NewMatrix(0, len(m.schema))}
	for _, line := range strings.Split(strings.TrimSpace(string(lines)), "\n") {
		var bits []float64
		for _, w := range strings.Fields(line) {
			u, err := strconv.ParseUint(w, 16, 64)
			if err != nil {
				t.Fatal(err)
			}
			bits = append(bits, math.Float64frombits(u))
		}
		if len(bits) != 1+len(m.schema) {
			t.Fatalf("a scores line of %d words for %d features", len(bits), len(m.schema))
		}
		want = append(want, bits[0])
		test.X.Data = append(test.X.Data, bits[1:]...)
		test.X.Rows++
	}
	for _, c := range []struct {
		what  string
		model *Model
	}{{"version 2", m}, {"version 3 round trip", roundTripModel(t, m)}} {
		got := make([]float64, len(want))
		if err := c.model.ScoreRowsInto(test.X, got, NewScoreWorkspace()); err != nil {
			t.Fatal(err)
		}
		ss, err := c.model.ScoreDataset(test)
		if err != nil {
			t.Fatal(err)
		}
		for i, total := range ss.Totals() {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(total) != math.Float64bits(want[i]) {
				t.Errorf("%s sample %d: ScoreRowsInto %v, ScoreDataset %v, recorded %v", c.what, i, got[i], total, want[i])
			}
		}
	}
}

// readFixture reads the artifact testdata/name.frac and, from
// testdata/name.scores, the samples it was scored on and their score bits:
// one sample a line, the bits of the total and then of the sample's cells,
// in hex.
func readFixture(t *testing.T, name string) (blob []byte, m *Model, test *dataset.Dataset, want []float64) {
	t.Helper()
	blob, err := os.ReadFile("testdata/" + name + ".frac")
	if err != nil {
		t.Fatal(err)
	}
	if m, err = ReadModel(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	lines, err := os.ReadFile("testdata/" + name + ".scores")
	if err != nil {
		t.Fatal(err)
	}
	test = &dataset.Dataset{Name: name, Schema: m.schema, X: linalg.NewMatrix(0, len(m.schema))}
	for _, line := range strings.Split(strings.TrimSpace(string(lines)), "\n") {
		var bits []float64
		for _, w := range strings.Fields(line) {
			u, err := strconv.ParseUint(w, 16, 64)
			if err != nil {
				t.Fatal(err)
			}
			bits = append(bits, math.Float64frombits(u))
		}
		if len(bits) != 1+len(m.schema) {
			t.Fatalf("a scores line of %d words for %d features", len(bits), len(m.schema))
		}
		want = append(want, bits[0])
		test.X.Data = append(test.X.Data, bits[1:]...)
		test.X.Rows++
	}
	return blob, m, test, want
}

// TestReadModelV3TreeFixture: testdata/trees_v3.frac is a TreeLearners
// model on mixed data (5 categorical and 4 real features with missing
// cells, 60 rows; full and diverse wirings, 18 terms, classification and
// regression trees splitting on real and categorical inputs) saved as
// version 3 by the code before trees indexed model columns: each tree
// carries an input block, and its node features index its term's inputs.
// testdata/trees_v3.scores holds the samples that code scored and their
// score bits, as wide_v2.scores does. The artifact loads and scores every
// sample to exactly those bits, through ScoreRowsInto and ScoreDataset
// alike, and so does its version-4 round trip, whose stream is the
// fixture's without the input blocks: shorter by exactly their bytes.
func TestReadModelV3TreeFixture(t *testing.T) {
	blob, m, test, want := readFixture(t, "trees_v3")
	blocks := 0
	for i := range m.terms {
		tm := &m.terms[i]
		_, cat := tm.cat.(*tree.Classifier)
		_, real := tm.real.(*tree.Regressor)
		if !cat && !real {
			t.Fatalf("term %d predicts with %T, want a tree", i, predictorOf(tm))
		}
		// The block's count word, then each input's name, kind and arity.
		blocks += 8
		for _, c := range tm.term.Inputs {
			blocks += 8 + len(m.schema[c].Name) + 16
		}
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.Len(); got != len(blob)-blocks {
		t.Errorf("the version-4 stream is %d bytes, want the fixture's %d less its %d bytes of input blocks", got, len(blob), blocks)
	}
	v4, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what  string
		model *Model
	}{{"version 3", m}, {"version 4 round trip", v4}} {
		got := make([]float64, len(want))
		if err := c.model.ScoreRowsInto(test.X, got, NewScoreWorkspace()); err != nil {
			t.Fatal(err)
		}
		ss, err := c.model.ScoreDataset(test)
		if err != nil {
			t.Fatal(err)
		}
		for i, total := range ss.Totals() {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(total) != math.Float64bits(want[i]) {
				t.Errorf("%s sample %d: ScoreRowsInto %v, ScoreDataset %v, recorded %v", c.what, i, got[i], total, want[i])
			}
		}
	}
}
