package linalg

import "fmt"

//go:noinline
func panicBadDims(op string, rows, cols int) {
	panic(fmt.Sprintf("linalg: %s negative dimension %dx%d", op, rows, cols))
}

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panicBadDims("NewMatrix", rows, cols)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Resize returns a rows x cols matrix that reuses m's backing array when it
// has the capacity (m may be nil). The returned matrix's contents are
// unspecified — callers must overwrite every cell. This is the reuse
// primitive behind the per-worker scratch matrices of the train/score hot
// paths.
func Resize(m *Matrix, rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panicBadDims("Resize", rows, cols)
	}
	n := rows * cols
	if m == nil {
		return NewMatrix(rows, cols)
	}
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// FromRows builds a matrix from a slice of equal-length rows, copying them.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("linalg: FromRows ragged row %d: %d vs %d", i, len(r), cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Row returns row i as a mutable slice view.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Col copies column j into dst (allocating when dst is nil or short) and
// returns it.
func (m *Matrix) Col(j int, dst []float64) []float64 {
	if cap(dst) < m.Rows {
		dst = make([]float64, m.Rows)
	}
	dst = dst[:m.Rows]
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Data[i*m.Cols+j]
	}
	return dst
}

// MulVec computes dst = m * x for a column vector x of length m.Cols,
// returning dst (allocated when nil or short).
func (m *Matrix) MulVec(x, dst []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dim mismatch: %d cols vs %d vec", m.Cols, len(x)))
	}
	if cap(dst) < m.Rows {
		dst = make([]float64, m.Rows)
	}
	dst = dst[:m.Rows]
	for i := 0; i < m.Rows; i++ {
		dst[i] = DotFast(m.Row(i), x) // fast tier: callers are tolerance-pinned
	}
	return dst
}

// Bytes reports the memory footprint of the matrix payload.
func (m *Matrix) Bytes() int64 { return int64(len(m.Data)) * 8 }
