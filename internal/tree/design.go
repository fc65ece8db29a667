package tree

import (
	"fmt"
	"math"
	"unsafe"

	"frac/internal/dataset"
	"frac/internal/linalg"
)

// Design is a read-only copy of a data set's columns laid out for tree
// fits, built once and read by every fit over its rows (DESIGN.md §7). A
// categorical column of arity a is bit-sliced and stored twice:
//
//   - one code per row: the row's label, or the missing sentinel, the code
//     type's largest value;
//   - one bitset per category over the rows, ⌈n/64⌉ words each: bit r of
//     category c's set is 1 when row r holds label c, so a missing row is
//     in no set.
//
// A real column is stored once, column-major as n float64 values, NaN for
// a missing cell. Codes use the narrowest of uint8, uint16, uint32 and
// uint64 whose sentinel exceeds every label of the schema. A Design is
// never written after NewDesign returns, so concurrent fits may share it.
type Design struct {
	n, words int
	cols     []designCol // one per data set column
	bits     []uint64
	reals    []float64
	codes    codeTable
}

// designCol locates one data set column in a Design.
type designCol struct {
	arity int // 0 for a real column
	// off places the column's n cells: a categorical column's codes are
	// codes[off : off+n], a real column's values reals[off : off+n].
	off  int
	bits int // category c's bitset is bits[bits+c*words : bits+(c+1)*words]
}

// codeWord is a Design's code type.
type codeWord interface {
	~uint8 | ~uint16 | ~uint32 | ~uint64
}

// codeCols holds a Design's codes, one column after another.
type codeCols[C codeWord] []C

// codeTable is a Design's codes behind their width: a fit or a walk
// dispatches on it once and then runs code of that width.
type codeTable interface {
	grow(s *Scratch)
	walk(t *tree, d *Design, cols []int, r int) *node
	bytes() int64
}

// NewDesign builds the design of x, whose columns' kinds and arities
// schema gives. Every observed categorical cell must be a label in
// [0, Arity).
func NewDesign(x *linalg.Matrix, schema dataset.Schema) *Design {
	if len(schema) != x.Cols {
		panic(fmt.Sprintf("tree: %d columns but schema has %d", x.Cols, len(schema)))
	}
	n := x.Rows
	d := &Design{n: n, words: (n + 63) / 64, cols: make([]designCol, len(schema))}
	maxArity, nCat, nReal, nBits := 0, 0, 0, 0
	for j, f := range schema {
		if f.Kind != dataset.Categorical {
			d.cols[j] = designCol{off: nReal * n}
			nReal++
			continue
		}
		d.cols[j] = designCol{arity: f.Arity, off: nCat * n, bits: nBits}
		maxArity = max(maxArity, f.Arity)
		nCat++
		nBits += f.Arity * d.words
	}
	d.bits = make([]uint64, nBits)
	d.reals = make([]float64, nReal*n)
	switch {
	case maxArity <= math.MaxUint8:
		d.codes = fillCodes(d, x, make(codeCols[uint8], nCat*n))
	case maxArity <= math.MaxUint16:
		d.codes = fillCodes(d, x, make(codeCols[uint16], nCat*n))
	case uint64(maxArity) <= math.MaxUint32:
		d.codes = fillCodes(d, x, make(codeCols[uint32], nCat*n))
	default:
		d.codes = fillCodes(d, x, make(codeCols[uint64], nCat*n))
	}
	return d
}

// fillCodes writes x's cells into codes, d's bitsets and d's real columns.
func fillCodes[C codeWord](d *Design, x *linalg.Matrix, codes codeCols[C]) codeCols[C] {
	for i := 0; i < d.n; i++ {
		row := x.Row(i)
		for j := range d.cols {
			col := &d.cols[j]
			v := row[j]
			if col.arity == 0 {
				d.reals[col.off+i] = v
				continue
			}
			if dataset.IsMissing(v) {
				codes[col.off+i] = ^C(0)
				continue
			}
			c := int(v)
			if float64(c) != v || c < 0 || c >= col.arity {
				panic(fmt.Sprintf("tree: row %d column %d: value %v is not a label in [0,%d)", i, j, v, col.arity))
			}
			codes[col.off+i] = C(c)
			d.bits[col.bits+c*d.words+i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return codes
}

// Rows reports the number of rows the design holds.
func (d *Design) Rows() int { return d.n }

// Bytes reports the design's analytic footprint.
func (d *Design) Bytes() int64 {
	return int64(len(d.cols))*24 + int64(len(d.bits))*8 + int64(len(d.reals))*8 + d.codes.bytes()
}

// realCol returns the values of real design column c, indexed by row.
func (d *Design) realCol(c int) []float64 {
	off := d.cols[c].off
	return d.reals[off : off+d.n : off+d.n]
}

func (cc codeCols[C]) bytes() int64 {
	var c C
	return int64(len(cc)) * int64(unsafe.Sizeof(c))
}

// walk descends t from its root to the leaf that design row r lands in,
// reading input j from design column cols[j], as tree.walk descends for
// the row's gathered cells.
func (cc codeCols[C]) walk(t *tree, d *Design, cols []int, r int) *node {
	cur := &t.nodes[0]
	for cur.feature >= 0 {
		col := &d.cols[cols[cur.feature]]
		var goLeft bool
		if cur.category >= 0 {
			code := cc[col.off+r]
			goLeft = int(code) == cur.category
			if code == ^C(0) {
				goLeft = cur.missingLeft
			}
		} else {
			v := d.reals[col.off+r]
			goLeft = v < cur.threshold
			if dataset.IsMissing(v) {
				goLeft = cur.missingLeft
			}
		}
		if goLeft {
			cur = &t.nodes[cur.left]
		} else {
			cur = &t.nodes[cur.right]
		}
	}
	return cur
}

// PredictDesignRow returns the label of the leaf design row r lands in when
// input j is design column cols[j]: the label PredictLabel gives the row's
// cells gathered through cols.
func (c *Classifier) PredictDesignRow(d *Design, cols []int, r int) int {
	return d.codes.walk(&c.tree, d, cols, r).label
}

// PredictDesignRow returns the mean target of the leaf design row r lands
// in when input j is design column cols[j]: the value Predict gives the
// row's cells gathered through cols.
func (p *Regressor) PredictDesignRow(d *Design, cols []int, r int) float64 {
	return d.codes.walk(&p.tree, d, cols, r).value
}

// FitClassifier fits the classification tree that TrainClassifier fits on
// the gathered rows, reading its inputs from a shared design instead: input
// j is design column cols[j], of the kind and arity inputs gives it; rows
// lists the fit's design rows, in order; and y holds a label in [0, arity)
// for every design row, of which only the fit's rows are read. s is the
// fit's working memory: after warm-up a fit allocates only the classifier
// it returns.
func FitClassifier(d *Design, cols []int, inputs dataset.Schema, rows, y []int, arity int, params Params, s *Scratch) *Classifier {
	checkFit(d, cols, inputs, len(y))
	if arity < 2 {
		panic(fmt.Sprintf("tree: classifier arity %d", arity))
	}
	s.fit = fit{d: d, cols: cols, inputs: inputs, params: params.withDefaults(), catY: y, arity: arity}
	return &Classifier{tree: s.grow(rows), Arity: arity}
}

// FitRegressor fits the regression tree that TrainRegressor fits on the
// gathered rows, reading its inputs from a shared design as FitClassifier
// does; y holds a target for every design row, of which only the fit's
// rows are read.
func FitRegressor(d *Design, cols []int, inputs dataset.Schema, rows []int, y []float64, params Params, s *Scratch) *Regressor {
	checkFit(d, cols, inputs, len(y))
	s.fit = fit{d: d, cols: cols, inputs: inputs, params: params.withDefaults(), realY: y}
	return &Regressor{tree: s.grow(rows)}
}

// checkFit panics unless input j of inputs is design column cols[j], of
// the same kind and arity, and there is one target per design row.
func checkFit(d *Design, cols []int, inputs dataset.Schema, targets int) {
	if len(cols) != len(inputs) {
		panic(fmt.Sprintf("tree: %d input columns but schema has %d", len(cols), len(inputs)))
	}
	if targets != d.n {
		panic(fmt.Sprintf("tree: design has %d rows but %d targets", d.n, targets))
	}
	for j, f := range inputs {
		col := d.cols[cols[j]]
		if f.Arity != col.arity || (f.Kind == dataset.Categorical) != (col.arity > 0) {
			panic(fmt.Sprintf("tree: input %d (%s, arity %d) does not match design column %d (arity %d)",
				j, f.Name, f.Arity, cols[j], col.arity))
		}
	}
}
