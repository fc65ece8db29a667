package binio

import (
	"bufio"
	"bytes"
	"hash/crc32"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(42)
	w.Int(-7)
	w.Bool(true)
	w.Bool(false)
	w.F64(math.Pi)
	w.String("héllo")
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if r.U64() != 42 || r.Int() != -7 || !r.Bool() || r.Bool() || r.F64() != math.Pi || r.String() != "héllo" {
		t.Fatal("scalar round trip failed")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripSlicesProperty(t *testing.T) {
	f := func(fs []float64, is []int16, s string) bool {
		ints := make([]int, len(is))
		for i, v := range is {
			ints[i] = int(v)
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.F64s(fs)
		w.Ints(ints)
		w.String(s)
		if w.Err() != nil {
			return false
		}
		r := NewReader(&buf)
		gf := r.F64s()
		gi := r.Ints()
		gs := r.String()
		if r.Err() != nil || len(gf) != len(fs) || len(gi) != len(ints) || gs != s {
			return false
		}
		for i := range fs {
			if gf[i] != fs[i] && !(math.IsNaN(gf[i]) && math.IsNaN(fs[i])) {
				return false
			}
		}
		for i := range ints {
			if gi[i] != ints[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReaderTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.F64s([]float64{1, 2, 3})
	full := buf.Bytes()
	r := NewReader(bytes.NewReader(full[:len(full)-4]))
	r.F64s()
	if r.Err() == nil {
		t.Error("truncated input read without error")
	}
}

func TestReaderImplausibleLength(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int(MaxSliceLen + 1) // corrupt length prefix
	r := NewReader(&buf)
	if r.F64s() != nil || r.Err() == nil {
		t.Error("implausible length accepted")
	}
	// Negative length.
	buf.Reset()
	w = NewWriter(&buf)
	w.Int(-5)
	r = NewReader(&buf)
	if r.Ints() != nil || r.Err() == nil {
		t.Error("negative length accepted")
	}
}

func TestErrorsSticky(t *testing.T) {
	r := NewReader(strings.NewReader("xx"))
	r.U64() // fails: short input
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	// Subsequent reads must not panic and keep the error.
	_ = r.F64s()
	_ = r.String()
	if r.Err() == nil {
		t.Fatal("error not sticky")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFail }

var errFail = &failError{}

type failError struct{}

func (*failError) Error() string { return "fail" }

func TestWriterSticky(t *testing.T) {
	w := NewWriter(failWriter{})
	w.U64(1)
	if w.Err() == nil {
		t.Fatal("expected error")
	}
	w.F64s([]float64{1})
	if w.Err() == nil {
		t.Fatal("error not sticky")
	}
}

// TestChecksum: Writer and Reader each keep the CRC-32C of exactly the
// bytes they moved. A Reader over a buffered source that has read ahead
// hashes what it decoded, not what the buffer holds.
func TestChecksum(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int(3)
	w.F64s([]float64{1.5, math.Inf(-1)})
	w.String("castagnoli")
	table := crc32.MakeTable(crc32.Castagnoli)
	blob := buf.Bytes()
	if got, want := w.Sum32(), crc32.Checksum(blob, table); got != want {
		t.Fatalf("Writer.Sum32 %08x, want %08x", got, want)
	}
	r := NewReader(bufio.NewReader(bytes.NewReader(blob)))
	if r.Sum32() != 0 || r.Int() != 3 {
		t.Fatal("bad first word")
	}
	if got, want := r.Sum32(), crc32.Checksum(blob[:8], table); got != want {
		t.Errorf("Reader.Sum32 after one word %08x, want %08x", got, want)
	}
	if fs, s := r.F64s(), r.String(); len(fs) != 2 || s != "castagnoli" {
		t.Fatalf("decoded %v, %q", fs, s)
	}
	if got, want := r.Sum32(), crc32.Checksum(blob, table); r.Err() != nil || got != want {
		t.Errorf("Reader.Sum32 at the end %08x (err %v), want %08x", got, r.Err(), want)
	}
}
