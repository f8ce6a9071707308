package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rmssd"
	"rmssd/internal/serving"
)

// TestExplicitInferMatchesDevice is the acceptance check for the
// trace-driven API: a request with explicit sparse indices must return
// predictions computed from exactly those indices — bit-identical to a
// direct Device.InferBatch call with the same inputs.
func TestExplicitInferMatchesDevice(t *testing.T) {
	s := testServer(t, 1)

	// Draw inputs from an independent generator (these are the "client's"
	// indices; the server has never seen this stream).
	gen := rmssd.MustNewTrace(rmssd.TraceConfig{
		Tables: s.def.cfg.Tables, Rows: s.def.cfg.RowsPerTable, Lookups: s.def.cfg.Lookups, Seed: 99,
	})
	const batch = 3
	sparses := gen.Batch(batch)
	denses := make([]rmssd.Vector, batch)
	for i := range denses {
		denses[i] = gen.DenseInput(i, s.def.cfg.DenseDim)
	}

	// Reference: a fresh device of the same config serves the same inputs.
	ref := rmssd.MustNewDevice(s.def.cfg, rmssd.DeviceOptions{})
	want, _, _, err := ref.InferBatch(0, denses, sparses)
	if err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(map[string]interface{}{"sparse": sparses, "dense": denses})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.handleInfer(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Predictions []float32 `json:"predictions"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Predictions) != batch {
		t.Fatalf("%d predictions, want %d", len(resp.Predictions), batch)
	}
	for i, p := range resp.Predictions {
		if math.Float32bits(p) != math.Float32bits(want[i]) {
			t.Fatalf("prediction %d = %v, want %v (server did not serve the client's indices)", i, p, want[i])
		}
	}
}

// TestExplicitInferValidation rejects malformed payloads instead of
// panicking deep inside the device.
func TestExplicitInferValidation(t *testing.T) {
	s := testServer(t, 1)
	cfg := s.def.cfg
	goodInf := func() [][]int64 {
		inf := make([][]int64, cfg.Tables)
		for t := range inf {
			inf[t] = make([]int64, cfg.Lookups)
		}
		return inf
	}
	cases := []struct {
		name string
		body map[string]interface{}
	}{
		{"wrong tables", map[string]interface{}{"sparse": [][][]int64{goodInf()[:1]}}},
		{"wrong lookups", map[string]interface{}{"sparse": func() [][][]int64 {
			inf := goodInf()
			inf[0] = inf[0][:1]
			return [][][]int64{inf}
		}()}},
		{"row out of range", map[string]interface{}{"sparse": func() [][][]int64 {
			inf := goodInf()
			inf[0][0] = cfg.RowsPerTable
			return [][][]int64{inf}
		}()}},
		{"negative row", map[string]interface{}{"sparse": func() [][][]int64 {
			inf := goodInf()
			inf[0][0] = -1
			return [][][]int64{inf}
		}()}},
		{"batch mismatch", map[string]interface{}{"batch": 2, "sparse": [][][]int64{goodInf()}}},
		{"dense mismatch", map[string]interface{}{"sparse": [][][]int64{goodInf()},
			"dense": [][]float32{make([]float32, cfg.DenseDim+1)}}},
		{"dense count mismatch", map[string]interface{}{"sparse": [][][]int64{goodInf()},
			"dense": [][]float32{make([]float32, cfg.DenseDim), make([]float32, cfg.DenseDim)}}},
		{"dense without sparse", map[string]interface{}{"dense": [][]float32{make([]float32, cfg.DenseDim)}}},
	}
	for _, c := range cases {
		body, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.handleInfer(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, rec.Code, rec.Body.String())
		}
	}
	// A valid explicit request with no dense vectors is accepted.
	body, err := json.Marshal(map[string]interface{}{"sparse": [][][]int64{goodInf()}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.handleInfer(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("valid sparse-only request: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestReplaySyntheticDeterministic: the in-process trace replay emits an
// identical report for identical seed and shard count.
func TestReplaySyntheticDeterministic(t *testing.T) {
	rc := replayConfig{Mode: "synthetic", Rate: 100000, Requests: 60, ReqBatch: 2, Seed: 5}
	run := func() serving.ReplayResult {
		s := testServer(t, 2)
		res, err := s.replay(rc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Requests != 60 || a.Inferences != 120 {
		t.Fatalf("res = %+v", a)
	}
	if a.P50 <= 0 || a.P99 < a.P50 || a.PredCheck == 0 {
		t.Fatalf("res = %+v", a)
	}
	if len(a.PerShard) != 2 || a.PerShard[0]+a.PerShard[1] != 120 {
		t.Fatalf("per-shard = %v", a.PerShard)
	}
}

// TestReplayCriteo: a Criteo-format TSV streams through the pool and the
// printed report carries the latency and coalescing lines.
func TestReplayCriteo(t *testing.T) {
	s := testServer(t, 2)
	gen := rmssd.MustNewTrace(rmssd.TraceConfig{
		Tables: s.def.cfg.Tables, Rows: s.def.cfg.RowsPerTable, Lookups: s.def.cfg.Lookups, Seed: 2,
	})
	tsv := filepath.Join(t.TempDir(), "criteo.tsv")
	f, err := os.Create(tsv)
	if err != nil {
		t.Fatal(err)
	}
	// Enough records for 5 full inferences at `Lookups` records each.
	records := 5 * s.def.cfg.Lookups
	if err := rmssd.SynthesizeCriteoTSV(f, records, gen); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	rc := replayConfig{Mode: "criteo", CriteoIn: tsv, Rate: 100000, Requests: 0, ReqBatch: 1, Seed: 5}
	if err := s.runReplay(rc, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"sim latency:", "p50=", "p99=", "coalescing:", "per shard:", "pred check:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	wantInf := records / s.def.cfg.Lookups
	if !strings.Contains(out, fmt.Sprintf("%d inferences", wantInf)) {
		t.Fatalf("report does not account for %d inferences:\n%s", wantInf, out)
	}
}

// TestReplayErrors: bad replay configurations fail cleanly.
func TestReplayErrors(t *testing.T) {
	s := testServer(t, 1)
	if _, err := s.replay(replayConfig{Mode: "nope", Rate: 1, Requests: 1, ReqBatch: 1}); err == nil {
		t.Fatal("unknown mode must error")
	}
	if _, err := s.replay(replayConfig{Mode: "criteo", Rate: 1, Requests: 1, ReqBatch: 1}); err == nil {
		t.Fatal("criteo without -criteo-in must error")
	}
	if _, err := s.replay(replayConfig{Mode: "synthetic", Rate: 1, Requests: 0, ReqBatch: 1}); err == nil {
		t.Fatal("unbounded synthetic replay must error")
	}
}

// TestReplayOutOfRangeTraceFailsTyped: a trace addressed to a larger table
// than the hosted model covers must fail exactly the malformed requests
// with the typed range error — per request, without wedging the pool or
// aborting the replay.
func TestReplayOutOfRangeTraceFailsTyped(t *testing.T) {
	s := testServer(t, 2)
	cfg := s.def.cfg

	// Direct submission first: the typed error, and batch-mates unharmed.
	gen := rmssd.MustNewTrace(rmssd.TraceConfig{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 77,
	})
	bad := gen.Batch(1)
	bad[0][0][0] = cfg.RowsPerTable + 3
	_, err := defPool(t, s).Submit(context.Background(), serving.Request{Sparse: bad})
	if !errors.Is(err, rmssd.ErrRowOutOfRange) {
		t.Fatalf("err = %v, want ErrRowOutOfRange", err)
	}
	resp, err := defPool(t, s).Submit(context.Background(), serving.Request{Sparse: gen.Batch(1)})
	if err != nil || len(resp.Preds) != 1 {
		t.Fatalf("in-range request after a rejected one: %+v %v", resp, err)
	}

	// A whole replay of the oversized trace: every request carries some
	// out-of-range row (4x the row space, hundreds of draws per request),
	// every one fails, and the replay still completes its full profile.
	wide := rmssd.MustNewTrace(rmssd.TraceConfig{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable * 4, Lookups: cfg.Lookups, Seed: 7,
	})
	src, err := serving.NewGeneratorSource(wide, 1, cfg.DenseDim)
	if err != nil {
		t.Fatal(err)
	}
	res, err := serving.Replay(s.def.backends(), serving.ReplayConfig{
		Rate: 100000, MaxBatch: s.def.decl.MaxBatch, Requests: 30, Seed: 7,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 30 || res.Failed != 30 || res.Inferences != 0 {
		t.Fatalf("res = %+v, want all 30 requests failed and none inferred", res)
	}
	// The shard devices did no work for rejected payloads: across the whole
	// test only the single in-range submission above reached a device.
	var total int64
	for _, sh := range s.def.shards {
		total += sh.snapshot().inferences
	}
	if total != 1 {
		t.Fatalf("devices ran %d inferences, want 1 (rejected payloads must not reach flash)", total)
	}
}
