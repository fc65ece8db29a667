package core

import (
	"bufio"
	"fmt"
	"io"

	"frac/internal/binio"
	"frac/internal/dataset"
	"frac/internal/drift"
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
//	    reference); version-2 streams are written unconditionally.
const (
	modelMagic   = "FRAC-MODEL"
	modelVersion = 2
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
)

// WriteTo serializes the trained model. It buffers internally and flushes
// before it returns.
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	buf := bufio.NewWriterSize(w, codecBufSize)
	bw := binio.NewWriter(buf)
	bw.String(modelMagic)
	bw.Int(modelVersion)
	encodeSchema(bw, m.schema)
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
	// The io.WriterTo contract wants a byte count; the binio writer does
	// not track one, so report 0 with the error status (callers here use
	// the error only).
	if err := bw.Err(); err != nil {
		return 0, err
	}
	return 0, buf.Flush()
}

// ReadModel deserializes a model written by WriteTo. The model scores
// samples but is not registered with any resource tracker. ReadModel
// buffers internally, so it may read past the end of the model: a caller
// that reads on from r after it must not expect to resume at the model's
// last byte.
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
	schema := decodeSchema(br)
	if err := schema.Validate(); err != nil {
		return nil, err
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
	m := &Model{schema: schema, terms: make([]termModel, 0, min(n, 1024))}
	for i := 0; i < n; i++ {
		tm, err := decodeTerm(br, schema)
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
	return m, br.Err()
}

func encodeSchema(w *binio.Writer, s dataset.Schema) {
	w.Int(len(s))
	for _, f := range s {
		w.String(f.Name)
		w.U64(uint64(f.Kind))
		w.Int(f.Arity)
	}
}

func decodeSchema(r *binio.Reader) dataset.Schema {
	n := r.Int()
	if r.Err() != nil || n < 0 || n > binio.MaxSliceLen {
		return nil
	}
	s := make(dataset.Schema, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		var f dataset.Feature
		f.Name = r.String()
		f.Kind = dataset.Kind(r.U64())
		f.Arity = r.Int()
		if r.Err() != nil {
			return nil
		}
		s = append(s, f)
	}
	return s
}

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
	return encodeRealPredictor(w, tm.real)
}

func decodeTerm(r *binio.Reader, schema dataset.Schema) (termModel, error) {
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
		cat, err := decodeCatPredictor(r)
		if err != nil {
			return tm, err
		}
		if err := validateCatPredictor(cat, len(tm.term.Inputs), tm.arity); err != nil {
			return tm, err
		}
		tm.cat = cat
		return tm, nil
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
	real, err := decodeRealPredictor(r)
	if err != nil {
		return tm, err
	}
	if err := validateRealPredictor(real, len(tm.term.Inputs)); err != nil {
		return tm, err
	}
	tm.real = real
	return tm, nil
}

// validateRealPredictor rejects decoded predictors whose shape disagrees
// with the term's input count; Predict would index out of range on them.
func validateRealPredictor(p RealPredictor, inputs int) error {
	switch v := p.(type) {
	case *imputedReal:
		if len(v.model.W) != inputs || len(v.means) != inputs || len(v.scales) != inputs {
			return fmt.Errorf("SVR shape (%d weights, %d means, %d scales) for %d inputs",
				len(v.model.W), len(v.means), len(v.scales), inputs)
		}
	case *tree.Regressor:
		if v.NumInputs() != inputs {
			return fmt.Errorf("tree over %d inputs for a %d-input term", v.NumInputs(), inputs)
		}
	}
	return nil
}

// validateCatPredictor mirrors validateRealPredictor and additionally pins
// the label range: predictions index the confusion matrix, so every label a
// predictor can emit must lie in [0, arity).
func validateCatPredictor(p CatPredictor, inputs, arity int) error {
	switch v := p.(type) {
	case constantCat:
		if v.label < 0 || v.label >= arity {
			return fmt.Errorf("constant label %d out of [0,%d)", v.label, arity)
		}
	case *tree.Classifier:
		if v.NumInputs() != inputs {
			return fmt.Errorf("tree over %d inputs for a %d-input term", v.NumInputs(), inputs)
		}
		if v.Arity != arity {
			return fmt.Errorf("tree over %d classes for arity %d", v.Arity, arity)
		}
	}
	return nil
}

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

func decodeRealPredictor(r *binio.Reader) (RealPredictor, error) {
	switch tag := r.Int(); tag {
	case tagConstantReal:
		return constantReal{value: r.F64()}, r.Err()
	case tagImputedSVR:
		m, err := svm.DecodeSVR(r)
		if err != nil {
			return nil, err
		}
		p := &imputedReal{model: m, means: r.F64s(), scales: r.F64s(), yMean: r.F64(), ySD: r.F64()}
		return p, r.Err()
	case tagTreeRegressor:
		return tree.DecodeRegressor(r)
	default:
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: unknown real predictor tag %d", tag)
	}
}

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

func decodeCatPredictor(r *binio.Reader) (CatPredictor, error) {
	switch tag := r.Int(); tag {
	case tagConstantCat:
		return constantCat{label: r.Int()}, r.Err()
	case tagTreeClassifier:
		return tree.DecodeClassifier(r)
	default:
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: unknown categorical predictor tag %d", tag)
	}
}
