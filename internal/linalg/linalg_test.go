package linalg

import (
	"math"
	"testing"
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
	if m.Bytes() != 48 {
		t.Errorf("Bytes = %d, want 2x3x8", m.Bytes())
	}
}

func TestFromRowsAndTranspose(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}
	m := FromRows(rows)
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("FromRows dims %dx%d", m.Rows, m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != rows[i][j] {
				t.Fatalf("FromRows mismatch at %d,%d", i, j)
			}
		}
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
