package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// The TSV interchange format:
//
//	# name: <dataset name>            (optional comment lines)
//	label<TAB>f1:real<TAB>f2:cat3...  (header: "label" column optional)
//	0<TAB>1.25<TAB>2
//	1<TAB>-0.5<TAB>?                  ("?" marks a missing value)
//
// Column type suffixes: ":real" for continuous, ":catK" for a categorical
// feature of arity K. The label column holds 0 (normal) / 1 (anomalous).

// WriteTSV serializes d to w. Each row is formatted into one reused buffer
// ('g'/-1 floats, decimal labels), so writing allocates nothing per row.
//
// Write errors are sticky on the bufio.Writer, so the individual writes
// need no checks; the final Flush surfaces the first failure.
func WriteTSV(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	if d.Name != "" {
		fmt.Fprintf(bw, "# name: %s\n", d.Name)
	}
	cols := make([]string, 0, len(d.Schema)+1)
	if d.Anomalous != nil {
		cols = append(cols, "label")
	}
	for _, f := range d.Schema {
		if f.Kind == Categorical {
			cols = append(cols, fmt.Sprintf("%s:cat%d", f.Name, f.Arity))
		} else {
			cols = append(cols, f.Name+":real")
		}
	}
	fmt.Fprintln(bw, strings.Join(cols, "\t"))
	var line []byte
	for i := 0; i < d.NumSamples(); i++ {
		line = line[:0]
		if d.Anomalous != nil {
			if d.Anomalous[i] {
				line = append(line, '1')
			} else {
				line = append(line, '0')
			}
		}
		for j, v := range d.Sample(i) {
			if j > 0 || d.Anomalous != nil {
				line = append(line, '\t')
			}
			switch {
			case IsMissing(v):
				line = append(line, '?')
			case d.Schema[j].Kind == Categorical:
				line = strconv.AppendInt(line, int64(int(v)), 10)
			default:
				line = strconv.AppendFloat(line, v, 'g', -1, 64)
			}
		}
		bw.Write(append(line, '\n'))
	}
	return bw.Flush()
}

// WriteFile serializes d to a file path.
func WriteFile(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTSV(f, d); err != nil {
		f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// ReadTSV parses the TSV interchange format.
func ReadTSV(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	name := ""
	var header []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# name:"); ok {
				name = strings.TrimSpace(rest)
			}
			continue
		}
		header = strings.Split(line, "\t")
		break
	}
	if header == nil {
		return nil, fmt.Errorf("dataset: empty TSV input")
	}
	hasLabel := header[0] == "label"
	featCols := header
	if hasLabel {
		featCols = header[1:]
	}
	schema := make(Schema, len(featCols))
	for i, col := range featCols {
		fname, typ, ok := strings.Cut(col, ":")
		if !ok {
			return nil, fmt.Errorf("dataset: header column %q lacks a :type suffix", col)
		}
		switch {
		case typ == "real":
			schema[i] = Feature{Name: fname, Kind: Real}
		case strings.HasPrefix(typ, "cat"):
			k, err := strconv.Atoi(typ[3:])
			if err != nil || k < 2 {
				return nil, fmt.Errorf("dataset: bad categorical arity in column %q", col)
			}
			schema[i] = Feature{Name: fname, Kind: Categorical, Arity: k}
		default:
			return nil, fmt.Errorf("dataset: unknown type %q in column %q", typ, col)
		}
	}
	var data []float64
	var labels []bool
	nRows, lineNo := 0, 1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		want := len(schema)
		if hasLabel {
			want++
		}
		if got := strings.Count(line, "\t") + 1; got != want {
			return nil, fmt.Errorf("dataset: line %d has %d fields, want %d", lineNo, got, want)
		}
		// Fields are walked in place; the count check above guarantees
		// exactly want of them.
		rest := line
		field := func() string {
			i := strings.IndexByte(rest, '\t')
			if i < 0 {
				f := rest
				rest = ""
				return f
			}
			f := rest[:i]
			rest = rest[i+1:]
			return f
		}
		if hasLabel {
			switch fv := field(); fv {
			case "0":
				labels = append(labels, false)
			case "1":
				labels = append(labels, true)
			default:
				return nil, fmt.Errorf("dataset: line %d has label %q, want 0 or 1", lineNo, fv)
			}
		}
		for j := range schema {
			fv := field()
			if fv == "?" {
				data = append(data, math.NaN())
				continue
			}
			v, err := strconv.ParseFloat(fv, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d column %d: %v", lineNo, j, err)
			}
			data = append(data, v)
		}
		nRows++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	d := New(name, schema, 0)
	d.X.Rows = nRows
	if data != nil {
		d.X.Data = data
	}
	if hasLabel {
		if labels == nil {
			// Zero-row labeled input: keep the dataset labeled (non-nil)
			// so the label column survives a write/read round trip.
			labels = []bool{}
		}
		d.Anomalous = labels
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// ReadFile parses a TSV data set from a file path.
func ReadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTSV(f)
}
