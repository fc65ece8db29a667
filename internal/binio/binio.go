// Package binio provides the little-endian binary primitives behind model
// serialization: length-prefixed slices, strings, and scalar values with
// explicit error propagation and allocation limits (a corrupted length
// prefix must not allocate unbounded memory). Writer and Reader each keep a
// running CRC-32C of the bytes they move, so a format can end with a
// checksum of exactly what its decoder consumed.
package binio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
)

// castagnoli is the CRC-32C table; hash/crc32 computes it in hardware where
// the CPU can.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// MaxSliceLen bounds decoded slice lengths as a corruption guard.
const MaxSliceLen = 1 << 28

// allocChunk caps the up-front capacity of decoded slices. Decoders grow
// their output as elements actually arrive, so a corrupt length prefix near
// MaxSliceLen allocates memory proportional to the real input size rather
// than gigabytes for a few-byte stream.
const allocChunk = 1 << 16

// Writer accumulates encoding errors so call sites can chain writes and
// check once.
type Writer struct {
	w   io.Writer
	err error
	buf [8]byte
	crc uint32
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err reports the first write error.
func (w *Writer) Err() error { return w.err }

// Sum32 reports the CRC-32C (Castagnoli) of every byte written so far.
func (w *Writer) Sum32() uint32 { return w.crc }

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, castagnoli, p)
	_, w.err = w.w.Write(p)
}

// U64 writes a uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.write(w.buf[:])
}

// Int writes an int (as int64).
func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

// Bool writes a bool.
func (w *Writer) Bool(v bool) {
	if v {
		w.U64(1)
	} else {
		w.U64(0)
	}
}

// F64 writes a float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// F64s writes a length-prefixed float64 slice.
func (w *Writer) F64s(vs []float64) {
	w.Int(len(vs))
	for _, v := range vs {
		w.F64(v)
	}
}

// Ints writes a length-prefixed int slice.
func (w *Writer) Ints(vs []int) {
	w.Int(len(vs))
	for _, v := range vs {
		w.Int(v)
	}
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Int(len(s))
	w.write([]byte(s))
}

// Reader mirrors Writer for decoding.
type Reader struct {
	r   io.Reader
	err error
	buf [8]byte
	crc uint32
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Err reports the first read error.
func (r *Reader) Err() error { return r.err }

// Sum32 reports the CRC-32C (Castagnoli) of every byte read so far: what
// the decoder consumed, however far ahead a buffered source has read.
func (r *Reader) Sum32() uint32 { return r.crc }

func (r *Reader) read(p []byte) {
	if r.err != nil {
		return
	}
	if _, r.err = io.ReadFull(r.r, p); r.err == nil {
		r.crc = crc32.Update(r.crc, castagnoli, p)
	}
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	r.read(r.buf[:])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:])
}

// Int reads an int.
func (r *Reader) Int() int { return int(int64(r.U64())) }

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U64() != 0 }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// sliceLen validates a decoded length.
func (r *Reader) sliceLen() int {
	n := r.Int()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > MaxSliceLen {
		r.err = fmt.Errorf("binio: implausible slice length %d", n)
		return 0
	}
	return n
}

// F64s reads a length-prefixed float64 slice.
func (r *Reader) F64s() []float64 {
	n := r.sliceLen()
	if r.err != nil {
		return nil
	}
	out := make([]float64, 0, min(n, allocChunk))
	for i := 0; i < n; i++ {
		v := r.F64()
		if r.err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// Ints reads a length-prefixed int slice.
func (r *Reader) Ints() []int {
	n := r.sliceLen()
	if r.err != nil {
		return nil
	}
	out := make([]int, 0, min(n, allocChunk))
	for i := 0; i < n; i++ {
		v := r.Int()
		if r.err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.sliceLen()
	if r.err != nil || n == 0 {
		return ""
	}
	var sb strings.Builder
	buf := make([]byte, min(n, allocChunk))
	for n > 0 {
		c := min(n, len(buf))
		r.read(buf[:c])
		if r.err != nil {
			return ""
		}
		sb.Write(buf[:c])
		n -= c
	}
	return sb.String()
}
