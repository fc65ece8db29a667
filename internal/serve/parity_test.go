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
	"sync"
	"testing"

	"frac/internal/core"
	"frac/internal/dataset"
	"frac/internal/linalg"
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
