package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"frac/internal/core"
	"frac/internal/dataset"
	"frac/internal/linalg"
	"frac/internal/obs"
)

// rowsJSON builds a /v1/score body for rows [lo, hi), encoding missing
// values as null.
func rowsJSON(t testing.TB, rows *linalg.Matrix, lo, hi int) []byte {
	t.Helper()
	doc := map[string]any{"rows": encodeRows(rows, lo, hi)}
	blob, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func encodeRows(rows *linalg.Matrix, lo, hi int) [][]any {
	out := make([][]any, 0, hi-lo)
	for i := lo; i < hi; i++ {
		row := make([]any, rows.Cols)
		for j, v := range rows.Row(i) {
			if dataset.IsMissing(v) {
				row[j] = nil
			} else {
				row[j] = v
			}
		}
		out = append(out, row)
	}
	return out
}

// postScore sends one score request and decodes the response.
func postScore(t testing.TB, url string, body []byte) ScoreResponse {
	t.Helper()
	resp, err := http.Post(url+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc ScoreResponse
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("score returned %d: %v", resp.StatusCode, e)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestServedScoresBitIdentical is the golden parity test: N probe rows
// scored through a live fracserve HTTP server (real listener, concurrent
// requests, micro-batch coalescing at several MaxBatch settings including 1
// and "everything in one batch") must be bit-identical to the offline
// frac.Run batch pipeline on the same model and rows. The serving path may
// not perturb scores — not by a single ulp.
func TestServedScoresBitIdentical(t *testing.T) {
	const n = 23
	train := testTrainSet()
	probe := testProbeRows(n)
	testDS := &dataset.Dataset{Name: "probe", Schema: testSchema(), X: probe}

	// The offline reference: train + score in one batch run.
	res, err := core.Run(train, testDS, core.FullTerms(train.NumFeatures()), core.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Scores

	// The served path: the same training persisted, reloaded, and scored
	// over HTTP through the batcher.
	path := testModelFile(t, 42)

	for _, maxBatch := range []int{1, 3, n, 4 * n} {
		t.Run(fmt.Sprintf("maxBatch=%d", maxBatch), func(t *testing.T) {
			h, err := NewHandle("m", path)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewServer([]*Handle{h}, ServerConfig{
				Batcher: BatcherConfig{MaxBatch: maxBatch, Workers: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()

			// Slice the probe rows into uneven concurrent requests so the
			// batcher actually coalesces across request boundaries.
			type span struct{ lo, hi int }
			var spans []span
			for lo, size := 0, 1; lo < n; size = size%3 + 1 {
				hi := lo + size
				if hi > n {
					hi = n
				}
				spans = append(spans, span{lo, hi})
				lo = hi
			}
			got := make([]float64, n)
			var wg sync.WaitGroup
			for _, sp := range spans {
				wg.Add(1)
				go func(sp span) {
					defer wg.Done()
					doc := postScore(t, ts.URL, rowsJSON(t, probe, sp.lo, sp.hi))
					if len(doc.Scores) != sp.hi-sp.lo {
						t.Errorf("rows [%d,%d): got %d scores", sp.lo, sp.hi, len(doc.Scores))
						return
					}
					copy(got[sp.lo:sp.hi], doc.Scores)
				}(sp)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("sample %d: served %x (%v) != batch %x (%v)",
						i, math.Float64bits(got[i]), got[i],
						math.Float64bits(want[i]), want[i])
				}
			}
		})
	}
}

// TestRuntimeScoreMatchesPersistRoundTrip pins that a loaded runtime scores
// exactly like the in-memory model it was persisted from.
func TestRuntimeScoreMatchesPersistRoundTrip(t *testing.T) {
	model := trainTestModel(t, 42)
	path := testModelFile(t, 42)
	rt, err := LoadRuntime(path)
	if err != nil {
		t.Fatal(err)
	}
	probe := testProbeRows(9)
	want := make([]float64, probe.Rows)
	if err := model.ScoreRowsInto(probe, want, core.NewScoreWorkspace()); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, probe.Rows)
	if err := rt.ScoreInto(probe, got, core.NewScoreWorkspace()); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("sample %d: loaded %v != trained %v", i, got[i], want[i])
		}
	}
	if rt.Hash() == "" || rt.NumTerms() != model.NumTerms() {
		t.Errorf("runtime identity: hash=%q terms=%d want terms=%d", rt.Hash(), rt.NumTerms(), model.NumTerms())
	}
}

// TestRuntimeHashIsFileHash pins the model_hash contract: a runtime's hash
// is the FNV-64a of the artifact file's bytes, all of them, however far the
// buffered decoder read. Junk past the model, longer than the decoder's
// buffer, is covered too.
func TestRuntimeHashIsFileHash(t *testing.T) {
	path := testModelFile(t, 42)
	fileHash := func() string {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(blob)
		return fmt.Sprintf("%016x", h.Sum64())
	}
	for _, trailing := range []int{0, 200 << 10} {
		if trailing > 0 {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, err = f.Write(bytes.Repeat([]byte{0xA5}, trailing))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		rt, err := LoadRuntime(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := fileHash(); rt.Hash() != want {
			t.Errorf("%d trailing bytes: runtime hash %s, file hash %s", trailing, rt.Hash(), want)
		}
	}
}

// wideFixture builds a wide all-real training set (10 rows, 16 features,
// so n < f−1) and 11 probe rows over it. Feature 3 has holes in training,
// so its term trains on the primal route while the other terms take the
// Gram route and score through the model's basis; the probe rows miss a
// cell now and then.
func wideFixture() (*dataset.Dataset, *linalg.Matrix) {
	const f = 16
	schema := make(dataset.Schema, f)
	for j := range schema {
		schema[j] = dataset.Feature{Name: fmt.Sprintf("g%d", j), Kind: dataset.Real}
	}
	g := lcg(0x5d1e)
	fill := func(s []float64) {
		base := g.next()*4 - 2
		for j := range s {
			s[j] = g.next() - 0.5
			if j%2 == 0 {
				s[j] += base * (1 + 0.1*float64(j))
			}
		}
	}
	train := dataset.New("wide", schema, 10)
	for i := 0; i < 10; i++ {
		fill(train.Sample(i))
		if i%4 == 0 {
			train.Sample(i)[3] = dataset.Missing
		}
	}
	probe := linalg.NewMatrix(11, f)
	for i := 0; i < probe.Rows; i++ {
		fill(probe.Row(i))
		if i%3 == 1 {
			probe.Row(i)[(5*i)%f] = dataset.Missing
		}
	}
	return train, probe
}

// TestRuntimeWideModelMatchesTrained: a saved wide model, whose
// Gram-routed terms keep their fits in dual form over the model's basis,
// loads into a runtime that scores bit-identically to the trained model's
// ScoreRowsInto at batch sizes 1, 3 and all rows.
func TestRuntimeWideModelMatchesTrained(t *testing.T) {
	train, probe := wideFixture()
	rec := obs.New()
	model, err := core.Train(train, core.FullTerms(train.NumFeatures()), core.Config{Seed: 7, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if gram := rec.Count(obs.CounterTermsGram); gram == 0 || gram == int64(model.NumTerms()) {
		t.Fatalf("%d of %d terms on the Gram route; the fixture needs both routes", gram, model.NumTerms())
	}
	want := make([]float64, probe.Rows)
	if err := model.ScoreRowsInto(probe, want, core.NewScoreWorkspace()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wide.frac")
	writeModelFile(t, model, path)
	rt, err := LoadRuntime(path)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Bytes() != model.Bytes() {
		t.Errorf("runtime Bytes %d, trained model %d", rt.Bytes(), model.Bytes())
	}
	for _, batch := range []int{1, 3, probe.Rows} {
		ws := core.NewScoreWorkspace()
		got := make([]float64, probe.Rows)
		for lo := 0; lo < probe.Rows; lo += batch {
			hi := min(lo+batch, probe.Rows)
			rows := &linalg.Matrix{Rows: hi - lo, Cols: probe.Cols, Data: probe.Data[lo*probe.Cols : hi*probe.Cols]}
			if err := rt.ScoreInto(rows, got[lo:hi], ws); err != nil {
				t.Fatal(err)
			}
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("batch %d sample %d: loaded %v, trained %v", batch, i, got[i], want[i])
			}
		}
	}
}
