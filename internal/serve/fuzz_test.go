package serve

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// FuzzScoreRequest fuzzes the /v1/score JSON decoder end to end through the
// handler: wrong arity, NaN/Inf spellings, huge row counts, schema
// mismatches, truncated JSON. The contract is the malformed-input hardening
// one — every input yields an orderly HTTP response (2xx/4xx, or 503 from
// the queue), never a panic and never a 500, with allocation bounded by
// MaxBodyBytes/MaxRows.
func FuzzScoreRequest(f *testing.F) {
	seeds := []string{
		`{"rows":[[0.1,0.2,0.3,1,0]]}`,
		`{"model":"m","rows":[[0.1,null,0.3,2,1]]}`,
		`{"model":"nope","rows":[[0.1,0.2,0.3,1,0]]}`,
		`{"rows":[[1,2]]}`,
		`{"rows":[[1,2,3,4,5,6,7,8]]}`,
		`{"rows":[[NaN,0,0,0,0]]}`,
		`{"rows":[["NaN",0,0,0,0]]}`,
		`{"rows":[[1e999,0,0,0,0]]}`,
		`{"rows":[[-1e309,0,0,0,0]]}`,
		`{"rows":[[1e300,-1e300,0,1,0]]}`,
		`{"rows":[]}`,
		`{"rows":[[0.1,0.2,0.3,1,0],[0.1,0.2,0.3,1,0],[0.1,0.2,0.3,1,0]]}`,
		`{"rows":[[` + strings.Repeat("1,", 5000) + `1]]}`,
		`{"rows":` + strings.Repeat(`[`, 200) + strings.Repeat(`]`, 200) + `}`,
		`{"rows":[[0.1,0.2,0.3,1,0]],"explain":4}`,
		`{"model":"m","rows":[[0.1,-5,0.3,1,0]],"explain":2}`,
		`{"rows":[[0.1,0.2,0.3,1,0]],"explain":-1}`,
		`{"rows":[[0.1,0.2,0.3,1,0]],"explain":100000}`,
		`{"rows":[[0.1,0.2,0.3,1,0]],"explain":1.5}`,
		`{"rows":[[0.1,0.2,0.3,1,0]],"explain":"x"}`,
		`{"rows":[[1e300,-1e300,0,1,0]],"explain":3}`,
		`{"rows":[[0.1,null,0.3,1,0]],"explain":5}`,
		`{"rows":[[0.1,0.2,0.3,1,0]]`,
		`[[0.1,0.2,0.3,1,0]]`,
		`{"rows":"x"}`,
		``,
		`null`,
		"\x00\x01\x02",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	var once sync.Once
	var srv *Server
	setup := func(t *testing.T) {
		once.Do(func() {
			path := testModelFile(t, 42)
			h, err := NewHandle("m", path)
			if err != nil {
				t.Fatal(err)
			}
			srv, err = NewServer([]*Handle{h}, ServerConfig{
				MaxRows:      64,
				MaxBodyBytes: 1 << 16,
				Batcher:      BatcherConfig{MaxBatch: 8, Workers: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		setup(t)
		req := httptest.NewRequest("POST", "/v1/score", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		code := rec.Code
		if code >= 500 && code != 503 {
			t.Errorf("request %q produced %d:\n%s", truncate(body), code, rec.Body.String())
		}
		if code >= 400 && code != 503 {
			// Every client error carries a JSON {"error": ...} body.
			if !strings.Contains(rec.Body.String(), `"error"`) {
				t.Errorf("request %q: %d without an error body: %q", truncate(body), code, rec.Body.String())
			}
		}
	})
}

func truncate(b []byte) string {
	if len(b) > 120 {
		return string(b[:120]) + "..."
	}
	return string(b)
}
