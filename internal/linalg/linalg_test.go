package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if d := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); d != 32 {
		t.Errorf("Dot = %v, want 32", d)
	}
	if d := Dot(nil, nil); d != 0 {
		t.Errorf("empty Dot = %v", d)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched Dot did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("Axpy = %v", y)
	}
	Axpy(0, []float64{100, 100}, y) // no-op path
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("Axpy(0) changed y: %v", y)
	}
}

func TestNorm2(t *testing.T) {
	if n := Norm2([]float64{3, 4}); n != 5 {
		t.Errorf("Norm2 = %v", n)
	}
	if n := Norm2(nil); n != 0 {
		t.Errorf("Norm2(nil) = %v", n)
	}
	// Overflow-safe for huge components.
	if n := Norm2([]float64{1e300, 1e300}); math.IsInf(n, 0) {
		t.Error("Norm2 overflowed")
	}
}

func TestSqDist(t *testing.T) {
	if d := SqDist([]float64{1, 2}, []float64{4, 6}); d != 25 {
		t.Errorf("SqDist = %v, want 25", d)
	}
}

func TestMatrixRowColSet(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Error("Set/At roundtrip failed")
	}
	row := m.Row(1)
	row[0] = 5 // views are mutable
	if m.At(1, 0) != 5 {
		t.Error("Row must be a mutable view")
	}
	col := m.Col(0, nil)
	if len(col) != 2 || col[1] != 5 {
		t.Errorf("Col = %v", col)
	}
}

func TestFromRowsAndTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose dims %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestMulAgainstHandComputed(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul = %v", c.Data)
			}
		}
	}
}

func TestMulTransposedMatchesMul(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed)%5 + 2
		a := NewMatrix(n, n+1)
		b := NewMatrix(n+2, n+1)
		s := float64(seed) + 1
		for i := range a.Data {
			s = math.Mod(s*37+11, 101)
			a.Data[i] = s
		}
		for i := range b.Data {
			s = math.Mod(s*37+11, 101)
			b.Data[i] = s
		}
		got := MulTransposed(a, b)
		want := Mul(a, b.Transpose())
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 0, 2}, {0, 3, 0}})
	got := m.MulVec([]float64{1, 2, 3}, nil)
	if got[0] != 7 || got[1] != 6 {
		t.Errorf("MulVec = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("Clone shares storage")
	}
}
