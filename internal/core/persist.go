package core

import (
	"bufio"
	"fmt"
	"io"

	"frac/internal/binio"
	"frac/internal/dataset"
	"frac/internal/drift"
	"frac/internal/linalg"
	"frac/internal/stats"
	"frac/internal/svm"
	"frac/internal/tree"
)

// Model persistence: train once (hours on real genomic data at full scale),
// save, and score new patient samples later without retraining. The format
// is a versioned little-endian binary stream covering every predictor type
// Train produces; WriteTo reports any other predictor as an error.

// Version history:
//
//	1 — magic, version, schema, term count, terms.
//	2 — appends a drift-reference trailer: Bool(present) + drift.Reference
//	    blob (see internal/drift). Version-1 streams still load (no
//	    reference).
//	3 — the dual form and a checksum. After the schema comes the basis
//	    block: Bool(present), then n, f (f = the schema's width), the basis
//	    means and scales (F64s of f each) and its standardized training
//	    rows (F64s of n·f, row-major). A Gram-routed term's predictor is
//	    written under tagGramSVR as β (F64s of n), b, u, yMean and ySD. The
//	    stream ends with one U64 word: the CRC-32C (Castagnoli) of every
//	    byte before it. Version-1 and version-2 streams still load, their
//	    SVR terms scoring through imputedReal as they always did.
//	4 — trees index model columns. A tree's stream is its arity
//	    (classifiers only) and its nodes, and a node's feature is a column
//	    of the schema; before, each tree also carried an input block, one
//	    schema entry per input of its term, and its node features indexed
//	    those inputs. Older streams still load: a tree's input block must
//	    match the schema at its term's inputs, and its nodes are renamed to
//	    model columns through them. Version-4 streams are written
//	    unconditionally.
const (
	modelMagic   = "FRAC-MODEL"
	modelVersion = 4
)

// codecBufSize is the buffer the codec puts in front of the caller's
// stream: the encoding moves one 8-byte word per call, and an unbuffered
// file would turn each word into a syscall.
const codecBufSize = 64 << 10

// Predictor type tags.
const (
	tagConstantReal = iota
	tagImputedSVR
	tagTreeRegressor
	tagConstantCat
	_ // 4: the retired linear SVC classifier; streams carrying it fail to load
	tagTreeClassifier
	tagGramSVR // version 3 on
)

// WriteTo serializes the trained model. It buffers internally and flushes
// before it returns.
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	buf := bufio.NewWriterSize(w, codecBufSize)
	bw := binio.NewWriter(buf)
	bw.String(modelMagic)
	bw.Int(modelVersion)
	dataset.EncodeSchema(bw, m.schema)
	encodeBasis(bw, m.basis)
	bw.Int(len(m.terms))
	for i := range m.terms {
		if err := encodeTerm(bw, &m.terms[i]); err != nil {
			return 0, err
		}
	}
	bw.Bool(m.driftRef != nil)
	if m.driftRef != nil {
		m.driftRef.Encode(bw)
	}
	bw.U64(uint64(bw.Sum32()))
	// The io.WriterTo contract wants a byte count; the binio writer does
	// not track one, so report 0 with the error status (callers here use
	// the error only).
	if err := bw.Err(); err != nil {
		return 0, err
	}
	return 0, buf.Flush()
}

// ReadModel deserializes a model written by WriteTo. The model scores
// samples but is not registered with any resource tracker. A version-3
// stream must end with the checksum of what came before it, which ReadModel
// checks once the body has decoded. ReadModel buffers internally, so it may
// read past the end of the model: a caller that reads on from r after it
// must not expect to resume at the model's last byte.
func ReadModel(r io.Reader) (*Model, error) {
	br := binio.NewReader(bufio.NewReaderSize(r, codecBufSize))
	if magic := br.String(); magic != modelMagic {
		if err := br.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: not a FRaC model (magic %q)", magic)
	}
	version := br.Int()
	if version < 1 || version > modelVersion {
		if err := br.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: unsupported model version %d", version)
	}
	schema := dataset.DecodeSchema(br)
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	var basis *dualBasis
	if version >= 3 {
		var err error
		if basis, err = decodeBasis(br, len(schema)); err != nil {
			return nil, err
		}
	}
	n := br.Int()
	if err := br.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > binio.MaxSliceLen {
		return nil, fmt.Errorf("core: implausible term count %d", n)
	}
	// Terms are appended as they decode, so a corrupt count allocates
	// memory proportional to the stream, not the claimed length.
	m := &Model{schema: schema, terms: make([]termModel, 0, min(n, 1024)), basis: basis}
	for i := 0; i < n; i++ {
		tm, err := decodeTerm(br, schema, basis, version < 4)
		if err != nil {
			return nil, fmt.Errorf("core: term %d: %w", i, err)
		}
		m.terms = append(m.terms, tm)
	}
	if version >= 2 && br.Bool() {
		ref, err := drift.DecodeReference(br)
		if err != nil {
			return nil, fmt.Errorf("core: drift reference: %w", err)
		}
		m.driftRef = ref
	}
	if version >= 3 {
		sum := br.Sum32()
		if word := br.U64(); br.Err() == nil && word != uint64(sum) {
			return nil, fmt.Errorf("core: model checksum %08x, but the stream says %016x", sum, word)
		}
	}
	return m, br.Err()
}

// encodeBasis writes a model's basis block (version 3 on).
func encodeBasis(w *binio.Writer, b *dualBasis) {
	w.Bool(b != nil)
	if b == nil {
		return
	}
	w.Int(b.z.Rows)
	w.Int(b.z.Cols)
	w.F64s(b.means)
	w.F64s(b.scales)
	w.F64s(b.z.Data)
}

// decodeBasis reads a basis block over f features. Its rows decode as the
// stream supplies them, so a corrupt row count allocates memory in
// proportion to the stream, not to the count.
func decodeBasis(r *binio.Reader, f int) (*dualBasis, error) {
	if !r.Bool() {
		return nil, r.Err()
	}
	n, cols := r.Int(), r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if cols != f || n < 1 || n > binio.MaxSliceLen/max(f, 1) {
		return nil, fmt.Errorf("core: basis of %d x %d for %d features", n, cols, f)
	}
	b := &dualBasis{means: r.F64s(), scales: r.F64s()}
	z := r.F64s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(b.means) != f || len(b.scales) != f || len(z) != n*f {
		return nil, fmt.Errorf("core: basis of %d x %d with %d means, %d scales and %d cells", n, f, len(b.means), len(b.scales), len(z))
	}
	b.z = &linalg.Matrix{Rows: n, Cols: f, Data: z}
	return b, nil
}

// encodeTerm writes one term of a model.
func encodeTerm(w *binio.Writer, tm *termModel) error {
	w.Int(tm.term.Target)
	w.Int(tm.term.Orig)
	w.Ints(tm.term.Inputs)
	w.Bool(tm.isCat)
	w.Int(tm.arity)
	w.F64(tm.entropy)
	if tm.isCat {
		// Confusion error model.
		w.Int(tm.catErr.K)
		w.Ints(tm.catErr.Counts)
		w.F64(tm.catErr.Smoothing)
		return encodeCatPredictor(w, tm.cat)
	}
	// Gaussian (+ optional KDE) error model.
	w.F64(tm.realErr.gauss.Mu)
	w.F64(tm.realErr.gauss.Sigma)
	w.Bool(tm.realErr.kde != nil)
	if tm.realErr.kde != nil {
		w.F64(tm.realErr.kde.Bandwidth())
		w.F64s(tm.realErr.kde.Points())
	}
	if p := tm.dual; p != nil {
		w.Int(tagGramSVR)
		w.F64s(p.beta)
		w.F64(p.b)
		w.F64(p.u)
		w.F64(p.yMean)
		w.F64(p.ySD)
		return w.Err()
	}
	return encodeRealPredictor(w, tm.real)
}

// decodeTerm reads one term of a model over schema; basis is the model's,
// nil when it has none, and legacy says the stream's version is below 4, so
// that its trees index their term's inputs.
func decodeTerm(r *binio.Reader, schema dataset.Schema, basis *dualBasis, legacy bool) (termModel, error) {
	var tm termModel
	tm.term.Target = r.Int()
	tm.term.Orig = r.Int()
	tm.term.Inputs = r.Ints()
	tm.isCat = r.Bool()
	tm.arity = r.Int()
	tm.entropy = r.F64()
	if err := r.Err(); err != nil {
		return tm, err
	}
	if err := tm.term.Validate(len(schema)); err != nil {
		return tm, err
	}
	// Scoring indexes the confusion matrix by the target's schema arity and
	// the predictor's output, so a decoded term must agree with its schema
	// entry exactly — anything else is corruption that would panic later.
	feat := schema[tm.term.Target]
	if tm.isCat != (feat.Kind == dataset.Categorical) {
		return tm, fmt.Errorf("term kind disagrees with schema feature %d", tm.term.Target)
	}
	if tm.isCat && tm.arity != feat.Arity {
		return tm, fmt.Errorf("term arity %d disagrees with schema arity %d", tm.arity, feat.Arity)
	}
	// A legacy tree indexes its term's inputs: the tree decoders rename its
	// nodes to model columns through them.
	var legacyMap []int
	if legacy {
		legacyMap = tm.term.Inputs
	}
	var err error
	if tm.isCat {
		k := r.Int()
		counts := r.Ints()
		smoothing := r.F64()
		if err := r.Err(); err != nil {
			return tm, err
		}
		if k != tm.arity || len(counts) != k*k {
			return tm, fmt.Errorf("confusion matrix %d with %d counts for arity %d", k, len(counts), tm.arity)
		}
		tm.catErr = &stats.Confusion{K: k, Counts: counts, Smoothing: smoothing}
		tm.cat, err = decodeCatPredictor(r, schema, tm.arity, legacyMap)
		return tm, err
	}
	tm.realErr.gauss = stats.Gaussian{Mu: r.F64(), Sigma: r.F64()}
	if r.Bool() {
		bw := r.F64()
		pts := r.F64s()
		if err := r.Err(); err != nil {
			return tm, err
		}
		if len(pts) == 0 {
			return tm, fmt.Errorf("empty KDE sample")
		}
		tm.realErr.kde = stats.FitKDE(pts, bw)
	}
	tag := r.Int()
	if tag == tagGramSVR {
		tm.dual, err = decodeDual(r, tm.term, basis)
		return tm, err
	}
	tm.real, err = decodeRealPredictor(r, tag, schema, tm.term.Inputs, legacyMap)
	return tm, err
}

// decodeDual reads a Gram-routed term's predictor, after its tag. It needs
// the model's basis: one dual value per basis row, and the all-but-one
// wiring the dual form predicts for.
func decodeDual(r *binio.Reader, term Term, basis *dualBasis) (*dualReal, error) {
	p := &dualReal{beta: r.F64s(), b: r.F64(), u: r.F64(), yMean: r.F64(), ySD: r.F64()}
	switch {
	case r.Err() != nil:
		return nil, r.Err()
	case basis == nil:
		return nil, fmt.Errorf("Gram-routed SVR in a model with no basis")
	case len(p.beta) != basis.z.Rows:
		return nil, fmt.Errorf("Gram-routed SVR with %d dual values over a basis of %d rows", len(p.beta), basis.z.Rows)
	case !allButTarget(term, basis.z.Cols):
		return nil, fmt.Errorf("Gram-routed SVR whose inputs are not every other feature")
	}
	return p, nil
}

// encodeRealPredictor writes the predictor of a real term.
func encodeRealPredictor(w *binio.Writer, p RealPredictor) error {
	switch v := p.(type) {
	case constantReal:
		w.Int(tagConstantReal)
		w.F64(v.value)
	case *imputedReal:
		w.Int(tagImputedSVR)
		v.model.Encode(w)
		w.F64s(v.means)
		w.F64s(v.scales)
		w.F64(v.yMean)
		w.F64(v.ySD)
	case *tree.Regressor:
		w.Int(tagTreeRegressor)
		v.Encode(w)
	default:
		return fmt.Errorf("core: predictor type %T is not serializable", p)
	}
	return w.Err()
}

// decodeRealPredictor reads the predictor, after its tag, of a term over
// schema whose inputs are inputs; legacyMap is decodeTerm's. An SVR whose
// shape disagrees with the input count is an error: PredictBatch would
// index out of range on it.
func decodeRealPredictor(r *binio.Reader, tag int, schema dataset.Schema, inputs, legacyMap []int) (RealPredictor, error) {
	switch tag {
	case tagConstantReal:
		return constantReal{value: r.F64()}, r.Err()
	case tagImputedSVR:
		m, err := svm.DecodeSVR(r)
		if err != nil {
			return nil, err
		}
		p := &imputedReal{model: m, inputs: inputs, means: r.F64s(), scales: r.F64s(), yMean: r.F64(), ySD: r.F64()}
		if err := r.Err(); err != nil {
			return nil, err
		}
		if n := len(inputs); len(m.W) != n || len(p.means) != n || len(p.scales) != n {
			return nil, fmt.Errorf("SVR shape (%d weights, %d means, %d scales) for %d inputs",
				len(m.W), len(p.means), len(p.scales), n)
		}
		return p, nil
	case tagTreeRegressor:
		return tree.DecodeRegressor(r, schema, legacyMap)
	default:
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: unknown real predictor tag %d", tag)
	}
}

// encodeCatPredictor is encodeRealPredictor for categorical predictors.
func encodeCatPredictor(w *binio.Writer, p CatPredictor) error {
	switch v := p.(type) {
	case constantCat:
		w.Int(tagConstantCat)
		w.Int(v.label)
	case *tree.Classifier:
		w.Int(tagTreeClassifier)
		v.Encode(w)
	default:
		return fmt.Errorf("core: predictor type %T is not serializable", p)
	}
	return w.Err()
}

// decodeCatPredictor is decodeRealPredictor for the categorical predictors
// of a target of the given arity. Predictions index the confusion matrix,
// so a predictor that can emit a label outside [0, arity) is an error.
func decodeCatPredictor(r *binio.Reader, schema dataset.Schema, arity int, legacyMap []int) (CatPredictor, error) {
	switch tag := r.Int(); tag {
	case tagConstantCat:
		p := constantCat{label: r.Int()}
		if err := r.Err(); err != nil {
			return nil, err
		}
		if p.label < 0 || p.label >= arity {
			return nil, fmt.Errorf("constant label %d out of [0,%d)", p.label, arity)
		}
		return p, nil
	case tagTreeClassifier:
		c, err := tree.DecodeClassifier(r, schema, legacyMap)
		if err != nil {
			return nil, err
		}
		if c.Arity != arity {
			return nil, fmt.Errorf("tree over %d classes for arity %d", c.Arity, arity)
		}
		return c, nil
	default:
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: unknown categorical predictor tag %d", tag)
	}
}
