package linalg

import "testing"

func TestMulDimensionPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"MulVec":    func() { NewMatrix(2, 3).MulVec([]float64{1}, nil) },
		"NewMatrix": func() { NewMatrix(-1, 2) },
		"FromRows":  func() { FromRows([][]float64{{1, 2}, {3}}) },
		"Axpy":      func() { Axpy(1, []float64{1}, []float64{1, 2}) },
		"SqDist":    func() { SqDist([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with bad dims did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Errorf("empty FromRows = %dx%d", m.Rows, m.Cols)
	}
}

func TestVectorHelpers(t *testing.T) {
	dst := make([]float64, 2)
	Fill(dst, 9)
	if dst[0] != 9 || dst[1] != 9 {
		t.Errorf("Fill = %v", dst)
	}
	c := Clone(dst)
	c[0] = 0
	if dst[0] != 9 {
		t.Error("Clone shares storage")
	}
}

func TestColBufferReuse(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	buf := make([]float64, 2)
	col := m.Col(1, buf)
	if &col[0] != &buf[0] {
		t.Error("Col did not reuse the buffer")
	}
	if col[0] != 2 || col[1] != 4 {
		t.Errorf("Col = %v", col)
	}
	if m.Bytes() != 32 {
		t.Errorf("Bytes = %d", m.Bytes())
	}
}
