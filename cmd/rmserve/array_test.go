package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"rmssd"
	"rmssd/internal/obs"
	"rmssd/internal/serving"
)

// arrayTestServer hosts RMC1 with every shard backed by a multi-device
// array.
func arrayTestServer(t *testing.T, shards, devices int, partition string) *server {
	t.Helper()
	return serveDecls(t, 0, modelDecl{
		Model: "RMC1", TableMB: 16, Shards: shards, MaxBatch: 8, Queue: 64,
		ArrayDevices: devices, Partition: partition,
	})
}

// An explicit payload served through an array-backed server must return
// predictions bit-identical to a direct Array.InferBatch with the same
// inputs — the HTTP layer adds nothing to the numerics.
func TestArrayExplicitInferMatchesArray(t *testing.T) {
	s := arrayTestServer(t, 1, 2, "hash")
	gen := rmssd.MustNewTrace(rmssd.TraceConfig{
		Tables: s.def.cfg.Tables, Rows: s.def.cfg.RowsPerTable, Lookups: s.def.cfg.Lookups, Seed: 99,
	})
	const batch = 3
	sparses := gen.Batch(batch)
	denses := make([]rmssd.Vector, batch)
	for i := range denses {
		denses[i] = gen.DenseInput(i, s.def.cfg.DenseDim)
	}
	ref, err := rmssd.NewArray(s.def.cfg, rmssd.DeviceOptions{ArrayDevices: 2, Partition: "hash"})
	if err != nil {
		t.Fatal(err)
	}
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
		t.Fatalf("predictions = %v", resp.Predictions)
	}
	for i := range want {
		if resp.Predictions[i] != want[i] {
			t.Fatalf("pred %d: server %v, array %v", i, resp.Predictions[i], want[i])
		}
	}
}

// The /info and /stats surfaces expose the array configuration and live
// scatter/gather counters; array-free servers keep the historical shape.
func TestArrayInfoAndStats(t *testing.T) {
	s := arrayTestServer(t, 2, 4, "range")
	rec := httptest.NewRecorder()
	s.handleInfo(rec, httptest.NewRequest(http.MethodGet, "/info", nil))
	var info map[string]interface{}
	if err := json.NewDecoder(rec.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info["arrayDevices"].(float64) != 4 || info["partition"] != "range" {
		t.Fatalf("info = %v", info)
	}

	if _, err := defPool(t, s).Infer(5); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	s.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats struct {
		Inferences int64 `json:"inferences"`
		Shards     []struct {
			Shard int `json:"shard"`
			Array *struct {
				Devices       int     `json:"devices"`
				Partition     string  `json:"partition"`
				Scattered     []int64 `json:"scattered"`
				Partials      int64   `json:"partials"`
				Transfers     int64   `json:"transfers"`
				TransferBytes int64   `json:"transferBytes"`
			} `json:"array"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Inferences != 5 || len(stats.Shards) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	var scattered int64
	for _, sh := range stats.Shards {
		if sh.Array == nil {
			t.Fatalf("shard %d missing array counters", sh.Shard)
		}
		if sh.Array.Devices != 4 || sh.Array.Partition != "range" || len(sh.Array.Scattered) != 4 {
			t.Fatalf("shard %d array = %+v", sh.Shard, sh.Array)
		}
		for _, n := range sh.Array.Scattered {
			scattered += n
		}
	}
	if want := int64(5 * s.def.cfg.Tables * s.def.cfg.Lookups); scattered != want {
		t.Fatalf("scattered %d lookups across shards, want %d", scattered, want)
	}

	// Array-free control: no array key anywhere.
	plain := testServer(t, 1)
	rec = httptest.NewRecorder()
	plain.handleInfo(rec, httptest.NewRequest(http.MethodGet, "/info", nil))
	var plainInfo map[string]interface{}
	if err := json.NewDecoder(rec.Body).Decode(&plainInfo); err != nil {
		t.Fatal(err)
	}
	if _, ok := plainInfo["arrayDevices"]; ok {
		t.Fatal("plain server reports arrayDevices")
	}
	rec = httptest.NewRecorder()
	plain.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if strings.Contains(rec.Body.String(), `"array"`) {
		t.Fatal("plain server reports array counters in /stats")
	}
}

// Replay over an array-backed pool: the full report is byte-identical
// across reruns and carries the array: line; array-free replays keep their
// historical bytes.
func TestArrayReplayDeterministic(t *testing.T) {
	rc := replayConfig{Mode: "synthetic", Rate: 100000, Requests: 60, ReqBatch: 2, Seed: 5}
	report := func(shards int) string {
		s := arrayTestServer(t, shards, 2, "hash")
		res, err := s.replay(rc)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		formatReplayResult(&sb, res)
		if err := s.formatCounters(&sb, s.def, res); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	rep := report(2)
	if rep != report(2) {
		t.Fatalf("array replay not deterministic:\n%s", rep)
	}
	if !strings.Contains(rep, "array:") || !strings.Contains(rep, "2 devices (hash)") {
		t.Fatalf("report missing array line:\n%s", rep)
	}

	// Array-free replays keep their historical report bytes: no array line.
	s := testServer(t, 1)
	res, err := s.replay(rc)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	formatReplayResult(&sb, res)
	if err := s.formatCounters(&sb, s.def, res); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "array:") {
		t.Fatalf("plain replay grew an array line:\n%s", sb.String())
	}
}

// A request's predictions are a pure function of its payload: serving the
// same explicit inputs through array-backed pools of 1, 2 and 4 shards
// returns bit-identical predictions — the shard count routes work, it never
// touches the numbers.
func TestArrayShardCountPredInvariance(t *testing.T) {
	cfg := rmssd.RMC1()
	cfg.RowsPerTable = cfg.RowsForBudget(16 << 20)
	gen := rmssd.MustNewTrace(rmssd.TraceConfig{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 55,
	})
	const requests = 8
	payloads := make([]serving.Request, requests)
	cursor := 0
	for r := range payloads {
		sparses := gen.Batch(2)
		denses := make([]rmssd.Vector, 2)
		for i := range denses {
			denses[i] = gen.DenseInput(cursor, cfg.DenseDim)
			cursor++
		}
		payloads[r] = serving.Request{Sparse: sparses, Dense: denses}
	}
	serve := func(shards int) [][]float32 {
		s := arrayTestServer(t, shards, 2, "hash")
		out := make([][]float32, requests)
		for r, req := range payloads {
			resp, err := defPool(t, s).Submit(context.Background(), req)
			if err != nil {
				t.Fatalf("%d shards, request %d: %v", shards, r, err)
			}
			out[r] = resp.Preds
		}
		return out
	}
	base := serve(1)
	for _, shards := range []int{2, 4} {
		got := serve(shards)
		for r := range base {
			if len(got[r]) != len(base[r]) {
				t.Fatalf("%d shards: request %d pred count %d vs %d", shards, r, len(got[r]), len(base[r]))
			}
			for i := range base[r] {
				if got[r][i] != base[r][i] {
					t.Fatalf("%d shards: request %d pred %d = %v, 1 shard = %v",
						shards, r, i, got[r][i], base[r][i])
				}
			}
		}
	}
}

// A traced array replay joins every member's span into the batch records:
// the array field carries one span per active member in index order, the
// top member's span doubles as the batch device span, and tracing does not
// change the replayed numbers.
func TestArrayReplayTraced(t *testing.T) {
	rc := replayConfig{Mode: "synthetic", Rate: 100000, Requests: 40, ReqBatch: 2, Seed: 7}
	plain := func() serving.ReplayResult {
		s := arrayTestServer(t, 2, 2, "hash")
		res, err := s.replay(rc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	s := arrayTestServer(t, 2, 2, "hash")
	trc := rc
	trc.Tracer = obs.NewTracer(obs.NewRegistry())
	traced, err := s.replay(trc)
	if err != nil {
		t.Fatal(err)
	}
	if plain.PredCheck != traced.PredCheck || plain.P99 != traced.P99 || plain.Elapsed != traced.Elapsed {
		t.Fatalf("tracing changed the replay: %+v vs %+v", plain, traced)
	}
	recs := trc.Tracer.Records()
	if len(recs) == 0 {
		t.Fatal("no batch records traced")
	}
	for _, r := range recs {
		if len(r.Array) == 0 {
			t.Fatalf("batch record without member spans: %+v", r)
		}
		for i, m := range r.Array {
			if i > 0 && r.Array[i-1].DeviceIndex >= m.DeviceIndex {
				t.Fatalf("member spans out of order: %+v", r.Array)
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("member %d span: %v", m.DeviceIndex, err)
			}
		}
		if r.Device == nil {
			t.Fatalf("batch record without device span: %+v", r)
		}
		// The batch's device span is the top member's (member 0), which
		// covers the pipeline end to end.
		if r.Array[0].DeviceIndex != 0 {
			t.Fatalf("top member span missing: %+v", r.Array)
		}
		if !reflect.DeepEqual(*r.Device, r.Array[0].DeviceSpan) {
			t.Fatalf("device span is not the top member's: %+v vs %+v", *r.Device, r.Array[0].DeviceSpan)
		}
	}
}

// The -models file accepts per-model arrayDevices/partition keys and builds
// array-backed shards from them; malformed array declarations fail loudly.
func TestArrayModelsConfig(t *testing.T) {
	mc, err := parseModelsConfig(strings.NewReader(`{"models": [
		{"name": "big", "model": "RMC1", "tableMB": 16, "arrayDevices": 2, "partition": "hash"},
		{"name": "small", "model": "RMC2", "tableMB": 16}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	hosted, err := mc.build(1)
	if err != nil {
		t.Fatal(err)
	}
	if a := hosted[0].shards[0].array(); a == nil || a.Layout().Devices() != 2 {
		t.Fatalf("big not array-backed: %v", hosted[0].shards[0].dev)
	}
	if a := hosted[1].shards[0].array(); a != nil {
		t.Fatal("small unexpectedly array-backed")
	}

	// Both entry points share the array bounds (the flags cover -partition
	// and -array-devices).
	for _, c := range []struct {
		name string
		args []string
		doc  string
	}{
		{"partition without array", []string{"-shards", "1", "-partition", "hash"}, `{"models": [{"model": "RMC1", "partition": "hash"}]}`},
		{"unknown partition", []string{"-array-devices", "2", "-partition", "modulo"}, `{"models": [{"model": "RMC1", "arrayDevices": 2, "partition": "modulo"}]}`},
		{"negative devices", []string{"-array-devices", "-1"}, `{"models": [{"model": "RMC1", "arrayDevices": -1}]}`},
		{"too many devices", []string{"-array-devices", "65"}, `{"models": [{"model": "RMC1", "arrayDevices": 65}]}`},
	} {
		rejectBoth(t, c.name, c.args, c.doc, "")
	}
}

// Every member of every array shard draws its own fault sequence: shard s
// member d must not share shard s+1 member d-1's seed, and shard 0 keeps the
// declared seed.
func TestArrayShardFaultSeedsDistinct(t *testing.T) {
	s := serveDecls(t, 0, modelDecl{
		Model: "RMC1", TableMB: 16, Shards: 2, MaxBatch: 8, Queue: 64,
		ArrayDevices: 2, Partition: "hash", FaultRate: 0.1, FaultSeed: 5,
	})
	owner := map[uint64]string{}
	for si, sh := range s.def.shards {
		for d, dev := range sh.array().Devices() {
			seed := dev.Device().Array().FaultPlan().Seed
			if prev, dup := owner[seed]; dup {
				t.Fatalf("shard %d member %d shares fault seed %#x with %s", si, d, seed, prev)
			}
			owner[seed] = fmt.Sprintf("shard %d member %d", si, d)
		}
	}
	if len(owner) != 4 {
		t.Fatalf("%d fault seeds, want 4: %v", len(owner), owner)
	}
	if owner[5] != "shard 0 member 0" {
		t.Fatalf("shard 0 member 0 moved off the declared seed: %v", owner)
	}
}

// Array-backed metrics label every span family by member device.
func TestArrayMetricsPerDevice(t *testing.T) {
	s := arrayTestServer(t, 1, 2, "range")
	s.enableMetrics()
	if _, err := defPool(t, s).Infer(3); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `device="0"`) || !strings.Contains(body, `device="1"`) {
		t.Fatalf("metrics missing per-device labels:\n%s", body)
	}
}
