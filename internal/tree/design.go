package tree

import (
	"fmt"
	"math"
	"unsafe"

	"frac/internal/dataset"
	"frac/internal/linalg"
)

// Design is a read-only, bit-sliced copy of a data set's categorical
// columns, built once and read by every tree fit over its rows (DESIGN.md
// §7). A categorical column of arity a is stored twice:
//
//   - one code per row: the row's label, or the missing sentinel, the code
//     type's largest value;
//   - one bitset per category over the rows, ⌈n/64⌉ words each: bit r of
//     category c's set is 1 when row r holds label c, so a missing row is
//     in no set.
//
// Real columns are not stored. Codes use the narrowest of uint8, uint16,
// uint32 and uint64 whose sentinel exceeds every label of the schema. A
// Design is never written after NewDesign returns, so concurrent fits may
// share it.
type Design struct {
	n, words int
	cols     []designCol // one per data set column
	bits     []uint64
	codes    codeTable
}

// designCol locates one data set column in a Design.
type designCol struct {
	arity int // 0 for a real column, which the Design does not store
	codes int // the column's codes are codes[codes : codes+n]
	bits  int // category c's bitset is bits[bits+c*words : bits+(c+1)*words]
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

// NewDesign builds the design of x's categorical columns, whose kinds and
// arities schema gives. Every observed categorical cell must be a label in
// [0, Arity).
func NewDesign(x *linalg.Matrix, schema dataset.Schema) *Design {
	if len(schema) != x.Cols {
		panic(fmt.Sprintf("tree: %d columns but schema has %d", x.Cols, len(schema)))
	}
	n := x.Rows
	d := &Design{n: n, words: (n + 63) / 64, cols: make([]designCol, len(schema))}
	maxArity, nCat, nBits := 0, 0, 0
	for j, f := range schema {
		if f.Kind != dataset.Categorical {
			continue
		}
		d.cols[j] = designCol{arity: f.Arity, codes: nCat * n, bits: nBits}
		maxArity = max(maxArity, f.Arity)
		nCat++
		nBits += f.Arity * d.words
	}
	d.bits = make([]uint64, nBits)
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

// fillCodes writes x's categorical cells into codes and d's bitsets.
func fillCodes[C codeWord](d *Design, x *linalg.Matrix, codes codeCols[C]) codeCols[C] {
	for i := 0; i < d.n; i++ {
		row := x.Row(i)
		for j := range d.cols {
			col := &d.cols[j]
			if col.arity == 0 {
				continue
			}
			v := row[j]
			if dataset.IsMissing(v) {
				codes[col.codes+i] = ^C(0)
				continue
			}
			c := int(v)
			if float64(c) != v || c < 0 || c >= col.arity {
				panic(fmt.Sprintf("tree: row %d column %d: value %v is not a label in [0,%d)", i, j, v, col.arity))
			}
			codes[col.codes+i] = C(c)
			d.bits[col.bits+c*d.words+i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return codes
}

// Rows reports the number of rows the design holds.
func (d *Design) Rows() int { return d.n }

// Bytes reports the design's analytic footprint.
func (d *Design) Bytes() int64 {
	return int64(len(d.cols))*24 + int64(len(d.bits))*8 + d.codes.bytes()
}

func (cc codeCols[C]) bytes() int64 {
	var c C
	return int64(len(cc)) * int64(unsafe.Sizeof(c))
}

// walk descends t from its root to the leaf that design row r lands in,
// reading input j from design column cols[j]. Every split of t must be
// categorical.
func (cc codeCols[C]) walk(t *tree, d *Design, cols []int, r int) *node {
	cur := &t.nodes[0]
	for cur.feature >= 0 {
		if cur.category < 0 {
			panic("tree: a design walk reached a threshold split")
		}
		code := cc[d.cols[cols[cur.feature]].codes+r]
		goLeft := int(code) == cur.category
		if code == ^C(0) {
			goLeft = cur.missingLeft
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
// cells gathered through cols. Every input of c must be categorical.
func (c *Classifier) PredictDesignRow(d *Design, cols []int, r int) int {
	return d.codes.walk(&c.tree, d, cols, r).label
}

// FitClassifier fits the classification tree that TrainClassifier fits on
// the gathered rows, reading its inputs from a shared design instead: input
// j is design column cols[j] and must be categorical, with the arity inputs
// gives it; rows lists the fit's design rows, in order; and y holds a label
// in [0, arity) for every design row, of which only the fit's rows are
// read. s is the fit's working memory: after warm-up a fit allocates only
// the classifier it returns.
func FitClassifier(d *Design, cols []int, inputs dataset.Schema, rows, y []int, arity int, params Params, s *Scratch) *Classifier {
	if len(cols) != len(inputs) {
		panic(fmt.Sprintf("tree: %d input columns but schema has %d", len(cols), len(inputs)))
	}
	if len(y) != d.n {
		panic(fmt.Sprintf("tree: design has %d rows but %d labels", d.n, len(y)))
	}
	if arity < 2 {
		panic(fmt.Sprintf("tree: classifier arity %d", arity))
	}
	for j, f := range inputs {
		if f.Kind != dataset.Categorical || f.Arity != d.cols[cols[j]].arity {
			panic(fmt.Sprintf("tree: input %d (%s, arity %d) is not design column %d's categorical arity %d",
				j, f.Name, f.Arity, cols[j], d.cols[cols[j]].arity))
		}
	}
	s.fit = fit{d: d, cols: cols, inputs: inputs, params: params.withDefaults(), catY: y, arity: arity}
	nodes := s.grow(rows)
	return &Classifier{tree: tree{nodes: append([]node(nil), nodes...), inputs: inputs}, Arity: arity}
}
