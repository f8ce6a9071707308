package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateWire = flag.Bool("update", false, "regenerate testdata/wire.golden from the current build")

// canonicalJSON re-encodes a reply body with sorted keys and every number
// kept as spelled, so the golden pins each endpoint's keys, values and
// number spellings but not the order of keys inside an object.
func canonicalJSON(body []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v interface{}
	if err := dec.Decode(&v); err != nil {
		return "", err
	}
	if dec.More() {
		return "", fmt.Errorf("trailing data after reply")
	}
	out, err := json.MarshalIndent(v, "", "  ")
	return string(out), err
}

// wireBody renders an explicit /infer body for model name with n
// inferences shaped for cfg; rows and dense features are fixed functions
// of their position. dense adds the dense vectors.
func wireBody(t *testing.T, s *server, name string, n int, dense bool) string {
	t.Helper()
	cfg := s.byName[name].cfg
	sparse := make([][][]int64, n)
	denses := make([][]float32, n)
	for i := range sparse {
		sparse[i] = make([][]int64, cfg.Tables)
		for tb := range sparse[i] {
			for l := 0; l < cfg.Lookups; l++ {
				sparse[i][tb] = append(sparse[i][tb], int64(i*31+tb*7+l*3)%cfg.RowsPerTable)
			}
		}
		for j := 0; j < cfg.DenseDim; j++ {
			denses[i] = append(denses[i], float32(i+j)/8)
		}
	}
	sp, err := json.Marshal(sparse)
	if err != nil {
		t.Fatal(err)
	}
	if !dense {
		return fmt.Sprintf(`{"model":%q,"sparse":%s}`, name, sp)
	}
	dn, err := json.Marshal(denses)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"model":%q,"sparse":%s,"dense":%s}`, name, sp, dn)
}

// TestWireGolden pins every endpoint's reply bodies: a fixed sequential
// request list against a two-model server and knobServer, each reply's
// status and canonical JSON compared with testdata/wire.golden. Each
// request is sent after the previous one's reply, so idle shards take the
// requests in turn and each request is served alone: the bodies are
// deterministic. Regenerate with `go test ./cmd/rmserve -run
// TestWireGolden -update`.
func TestWireGolden(t *testing.T) {
	type call struct{ method, path, body string }
	multi := testMultiServer(t, 2)
	knobs := knobServer(t)
	runs := []struct {
		name  string
		s     *server
		calls []call
		// closed requests run after the router is closed.
		closed []call
	}{
		{"multi", multi, []call{
			{"GET", "/info", ""},
			{"GET", "/models", ""},
			{"GET", "/qps", ""},
			{"GET", "/qps?batch=4&model=wide", ""},
			{"GET", "/qps?batch=0", ""},
			{"GET", "/qps?model=mystery", ""},
			{"POST", "/infer", `{"batch":2}`},
			{"POST", "/infer", `{"model":"wide","batch":1}`},
			{"POST", "/infer", `{}`},
			{"POST", "/infer", wireBody(t, multi, "ctr", 3, true)},
			{"POST", "/infer", wireBody(t, multi, "wide", 2, false)},
			{"POST", "/infer", wireBody(t, multi, "wide", 1, true)},
			{"GET", "/infer", ""},
			{"POST", "/infer", `{`},
			{"POST", "/infer", `{"batch":9999}`},
			{"POST", "/infer", `{"model":"mystery","batch":1}`},
			{"POST", "/infer", `{"dense":[[1,2]]}`},
			{"POST", "/infer", `{"batch":2,"sparse":[[[0]]]}`},
			{"POST", "/infer", `{"model":"wide","sparse":[[[0]]]}`},
			{"GET", "/stats", ""},
			{"GET", "/models", ""},
		}, []call{
			{"POST", "/infer", `{"batch":1}`},
			{"GET", "/stats", ""},
		}},
		{"knobs", knobs, []call{
			{"GET", "/info", ""},
			{"GET", "/qps?batch=2", ""},
			{"POST", "/infer", `{"batch":2}`},
			{"POST", "/infer", `{"model":"knobs","batch":4}`},
			{"POST", "/infer", wireBody(t, knobs, "knobs", 2, true)},
			{"POST", "/infer", `{"batch":3}`},
			{"GET", "/stats", ""},
			{"GET", "/models", ""},
		}, nil},
	}

	var sb strings.Builder
	for _, run := range runs {
		mux := run.s.routes()
		do := func(c call) {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
			body, err := canonicalJSON(rec.Body.Bytes())
			if err != nil {
				t.Fatalf("%s %s %s: %v\n%s", run.name, c.method, c.path, err, rec.Body.String())
			}
			req := c.body
			if len(req) > 60 {
				req = req[:60] + "..."
			}
			fmt.Fprintf(&sb, "=== %s %s %s %s\n%d %s\n%s\n",
				run.name, c.method, c.path, req, rec.Code, rec.Header().Get("Content-Type"), body)
		}
		for _, c := range run.calls {
			do(c)
		}
		if run.closed != nil {
			run.s.close()
			for _, c := range run.closed {
				do(c)
			}
		}
	}

	path := filepath.Join("testdata", "wire.golden")
	if *updateWire {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("wire.golden differs at line %d:\ngot  %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("wire.golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}
