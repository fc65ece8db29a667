package svm

import "frac/internal/binio"

// Serialization of trained linear models (model persistence).

// Encode serializes the regressor.
func (m *SVR) Encode(w *binio.Writer) {
	w.F64s(m.W)
	w.F64(m.B)
	w.Int(m.Iters)
}

// DecodeSVR reads an SVR serialized with Encode.
func DecodeSVR(r *binio.Reader) (*SVR, error) {
	m := &SVR{W: r.F64s(), B: r.F64(), Iters: r.Int()}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}
