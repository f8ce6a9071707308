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
	"runtime"
	"strings"
	"testing"

	"rmssd"
	"rmssd/internal/serving"
	"rmssd/internal/wire"
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

	body, err := json.Marshal(wire.InferRequest{Sparse: sparses, Dense: denses})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.handleInfer(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp wire.InferReply
	decodeReply(t, rec, &resp)
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
		body wire.InferRequest
	}{
		{"wrong tables", wire.InferRequest{Sparse: [][][]int64{goodInf()[:1]}}},
		{"wrong lookups", wire.InferRequest{Sparse: func() [][][]int64 {
			inf := goodInf()
			inf[0] = inf[0][:1]
			return [][][]int64{inf}
		}()}},
		{"row out of range", wire.InferRequest{Sparse: func() [][][]int64 {
			inf := goodInf()
			inf[0][0] = cfg.RowsPerTable
			return [][][]int64{inf}
		}()}},
		{"negative row", wire.InferRequest{Sparse: func() [][][]int64 {
			inf := goodInf()
			inf[0][0] = -1
			return [][][]int64{inf}
		}()}},
		{"batch mismatch", wire.InferRequest{Batch: 2, Sparse: [][][]int64{goodInf()}}},
		{"dense mismatch", wire.InferRequest{Sparse: [][][]int64{goodInf()},
			Dense: []rmssd.Vector{make(rmssd.Vector, cfg.DenseDim+1)}}},
		{"dense count mismatch", wire.InferRequest{Sparse: [][][]int64{goodInf()},
			Dense: []rmssd.Vector{make(rmssd.Vector, cfg.DenseDim), make(rmssd.Vector, cfg.DenseDim)}}},
		{"dense without sparse", wire.InferRequest{Dense: []rmssd.Vector{make(rmssd.Vector, cfg.DenseDim)}}},
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
	body, err := json.Marshal(wire.InferRequest{Sparse: [][][]int64{goodInf()}})
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

// withoutWallClock drops a replay report's wall-clock line, its one
// intentionally host-dependent line.
func withoutWallClock(report string) string {
	var kept []string
	for _, line := range strings.Split(report, "\n") {
		if !strings.HasPrefix(line, "wall clock:") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

// Replay mode (rmserve -trace) hosts the models without a router: it starts
// no goroutine that outlives it, where a router's pools would leave one
// shard worker per shard running, and it prints the report the same replay
// prints over a live server's shards.
func TestReplayModeStartsNoGoroutine(t *testing.T) {
	mc := wire.ModelsConfig{Models: []wire.ModelDecl{
		{Name: "ctr", Model: "RMC1", TableMB: 8, Shards: 2, Weight: 2, Dedup: true},
		{Name: "wide", Model: "WnD", TableMB: 8, Shards: 2, ArrayDevices: 2, FaultRate: 0.05},
	}}
	rc := replayConfig{Mode: "synthetic", Rate: 100000, Requests: 40, ReqBatch: 2, Seed: 5}
	before := runtime.NumGoroutine()
	var got strings.Builder
	if err := replayModels(mc, 1, rc, &got); err != nil {
		t.Fatal(err)
	}
	// A goroutine that is already exiting may still be counted; let it
	// finish rather than failing on it.
	after := runtime.NumGoroutine()
	for i := 0; i < 1000 && after > before; i++ {
		runtime.Gosched()
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("replay mode left %d goroutines running, want none", after-before)
	}

	s := serveDecls(t, 0, mc.Models...)
	var want strings.Builder
	if err := s.runReplay(rc, &want); err != nil {
		t.Fatal(err)
	}
	if g, w := withoutWallClock(got.String()), withoutWallClock(want.String()); g != w {
		t.Fatalf("replay mode report differs from the server's:\n%s\nwant:\n%s", g, w)
	}
}

// TestReplayNoDenseModel: replay mode hosts NCF, a model without dense
// features, alone and beside a dense model, and serves every inference.
func TestReplayNoDenseModel(t *testing.T) {
	ncf := wire.ModelDecl{Name: "ncf", Model: "NCF", TableMB: 8, Shards: 1}
	rmc1 := wire.ModelDecl{Name: "ctr", Model: "RMC1", TableMB: 8, Shards: 1}
	rc := replayConfig{Mode: "synthetic", Rate: 100000, Requests: 40, ReqBatch: 2, Seed: 5}
	for _, c := range []struct {
		decls []wire.ModelDecl
		want  string
	}{
		{[]wire.ModelDecl{ncf}, "served:       40 requests, 80 inferences"},
		{[]wire.ModelDecl{rmc1, ncf}, "--- model ncf (NCF"},
	} {
		var out strings.Builder
		if err := replayModels(wire.ModelsConfig{Models: c.decls}, 1, rc, &out); err != nil {
			t.Fatalf("%d models: %v", len(c.decls), err)
		}
		if !strings.Contains(out.String(), c.want) {
			t.Fatalf("report lacks %q:\n%s", c.want, out.String())
		}
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
