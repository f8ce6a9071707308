package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rmssd"
	"rmssd/internal/serving"
	"rmssd/internal/wire"
)

// testMultiServer hosts two heterogeneous models: a sharded RMC1 replica
// ("ctr", weight 2) and a single-shard WnD replica ("wide"). The configs
// differ in every dimension the router must keep apart: table count,
// lookups, embedding width and dense width.
func testMultiServer(t *testing.T, budget int) *server {
	t.Helper()
	return serveDecls(t, budget, ctrDecl,
		wire.ModelDecl{Name: "wide", Model: "WnD", TableMB: 16, Shards: 1, MaxBatch: 8, Queue: 64, Weight: 1})
}

// ctrDecl is testMultiServer's first model, also replayed solo.
var ctrDecl = wire.ModelDecl{Name: "ctr", Model: "RMC1", TableMB: 16, Shards: 2, MaxBatch: 8, Queue: 64, Weight: 2}

func TestParseModelsConfig(t *testing.T) {
	mc, err := wire.ParseModelsConfig(strings.NewReader(`{"models": [
		{"name": "ctr", "model": "RMC1", "tableMB": 16, "shards": 2, "weight": 2},
		{"model": "WnD", "tableMB": 16}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.Models) != 2 {
		t.Fatalf("models = %+v", mc.Models)
	}
	d := mc.Models[0]
	if d.Name != "ctr" || d.Model != "RMC1" || d.Shards != 2 || d.Weight != 2 || d.Queue != 256 {
		t.Fatalf("decl 0 = %+v", d)
	}
	// Defaults: name from architecture, shards 1, weight 1, tableMB kept.
	d = mc.Models[1]
	if d.Name != "WnD" || d.Shards != 1 || d.Weight != 1 || d.TableMB != 16 {
		t.Fatalf("decl 1 = %+v", d)
	}

	hosted, err := buildModels(mc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosted) != 2 || hosted[0].decl.Name != "ctr" || hosted[1].decl.Name != "WnD" {
		t.Fatalf("hosted = %v, %v", hosted[0].decl.Name, hosted[1].decl.Name)
	}
	if hosted[0].cfg.Tables != 8 || hosted[1].cfg.Tables != 26 {
		t.Fatalf("configs not heterogeneous: %d/%d tables",
			hosted[0].cfg.Tables, hosted[1].cfg.Tables)
	}
}

// Both shards of a -models entry read one copy of the model's weights,
// whether each shard is a single device or a two-device array.
func TestShardsShareWeights(t *testing.T) {
	mc, err := wire.ParseModelsConfig(strings.NewReader(`{"models": [
		{"name": "plain", "model": "RMC1", "tableMB": 16, "shards": 2},
		{"name": "arr", "model": "RMC1", "tableMB": 16, "shards": 2, "arrayDevices": 2}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	hosted, err := buildModels(mc, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hosted {
		var devs []*rmssd.Device
		for _, sh := range h.shards {
			if a := sh.array(); a != nil {
				devs = append(devs, a.Devices()...)
			} else {
				devs = append(devs, sh.sh.Device().(*rmssd.Device))
			}
		}
		if want := 2 * max(h.decl.ArrayDevices, 1); len(devs) != want {
			t.Fatalf("%s: %d devices, want %d", h.decl.Name, len(devs), want)
		}
		w := &devs[0].Model().Bottom[0].W.Data[0]
		for i, dev := range devs[1:] {
			if &dev.Model().Bottom[0].W.Data[0] != w {
				t.Fatalf("%s: device %d holds its own copy of the weights", h.decl.Name, i+1)
			}
		}
	}
}

// Hosted weights live outside the GC heap (model.BuildResident), so hosting
// RMC3 at 64 MiB over two shards grows the heap only by the devices' own
// state. With its 12.2 MiB of weights on the heap, HeapAlloc grew by about
// that much, and the GC let as much request garbage build up again.
func TestBuildKeepsWeightsOffHeap(t *testing.T) {
	mc := wire.ModelsConfig{Models: []wire.ModelDecl{{Model: "RMC3", TableMB: 64, Shards: 2}}}
	if err := mc.Validate(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	hosted, err := buildModels(mc, 1)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("hosting RMC3 grew the heap by %.2f MiB, want < 1 MiB", float64(grew)/(1<<20))
	}
	runtime.KeepAlive(hosted)
}

// parseSingleFlags binds args into one decl exactly as single-model mode
// does and validates it as a one-entry config.
func parseSingleFlags(args []string) (wire.ModelDecl, error) {
	fs := flag.NewFlagSet("rmserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var d wire.ModelDecl
	bindModelFlags(fs, &d)
	if err := fs.Parse(args); err != nil {
		return wire.ModelDecl{}, err
	}
	mc := wire.ModelsConfig{Models: []wire.ModelDecl{d}}
	if err := mc.Validate(); err != nil {
		return wire.ModelDecl{}, err
	}
	return mc.Models[0], nil
}

// rejectBoth requires both entry points to refuse a case: the single-model
// flags args (skipped when nil) and the -models document doc (skipped when
// empty). A non-empty want must appear in each error.
func rejectBoth(t *testing.T, name string, args []string, doc, want string) {
	t.Helper()
	check := func(path string, err error) {
		if err == nil {
			t.Errorf("%s (%s): accepted", name, path)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("%s (%s): err = %v, want it to name %s", name, path, err, want)
		}
	}
	if args != nil {
		_, err := parseSingleFlags(args)
		check("flags", err)
	}
	if doc != "" {
		_, err := wire.ParseModelsConfig(strings.NewReader(doc))
		check("-models", err)
	}
}

// TestParseModelsConfigRejects runs every reject case through both entry
// points; cases with no flag form (several models, unknown keys, weights,
// malformed JSON) go through the decoder only.
func TestParseModelsConfigRejects(t *testing.T) {
	cases := []struct {
		name string
		args []string
		doc  string
	}{
		{"empty", nil, `{}`},
		{"no models", nil, `{"models": []}`},
		{"missing architecture", []string{"-model", ""}, `{"models": [{"name": "x"}]}`},
		{"unknown architecture", []string{"-model", "RMC9"}, `{"models": [{"model": "RMC9"}]}`},
		{"duplicate name", nil, `{"models": [{"model": "RMC1"}, {"model": "RMC1"}]}`},
		{"unknown field", nil, `{"models": [{"model": "RMC1", "tableGB": 1}]}`},
		{"negative weight", nil, `{"models": [{"model": "RMC1", "weight": -1}]}`},
		{"negative tableMB", []string{"-table-mb", "-4"}, `{"models": [{"model": "RMC1", "tableMB": -4}]}`},
		{"tableMB over 2^20", []string{"-table-mb", "1048577"}, `{"models": [{"model": "RMC1", "tableMB": 1048577}]}`},
		{"negative shards", []string{"-shards", "-3"}, `{"models": [{"model": "RMC1", "shards": -3}]}`},
		{"negative queue", []string{"-queue", "-1"}, `{"models": [{"model": "RMC1", "queue": -1}]}`},
		{"negative maxBatch", []string{"-max-batch", "-2"}, `{"models": [{"model": "RMC1", "maxBatch": -2}]}`},
		{"fault rate 1", []string{"-fault-rate", "1"}, `{"models": [{"model": "RMC1", "faultRate": 1}]}`},
		{"negative fault rate", []string{"-fault-rate", "-0.5"}, `{"models": [{"model": "RMC1", "faultRate": -0.5}]}`},
		{"NaN fault rate", []string{"-fault-rate", "NaN"}, ""},
		{"trailing garbage", nil, `{"models": [{"model": "RMC1"}]} {"models": []}`},
		{"not json", nil, `models: [RMC1]`},
	}
	for _, c := range cases {
		rejectBoth(t, c.name, c.args, c.doc, "")
	}
}

// The flags and the -models keys are one declaration: the same settings
// through either entry point validate to equal decls, zero shards and
// queue included (1 and 256 on both paths).
func TestSingleFlagsMatchModelsKeys(t *testing.T) {
	flagDecl, err := parseSingleFlags([]string{
		"-model", "RMC2", "-table-mb", "16", "-shards", "0", "-max-batch", "4", "-queue", "0",
		"-ev-cache-mb", "2", "-dedup", "-fault-rate", "0.1", "-fault-seed", "9",
		"-array-devices", "2", "-partition", "hash",
	})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := wire.ParseModelsConfig(strings.NewReader(`{"models": [{"model": "RMC2", "tableMB": 16,
		"shards": 0, "maxBatch": 4, "queue": 0, "evCacheMB": 2, "dedup": true,
		"faultRate": 0.1, "faultSeed": 9, "arrayDevices": 2, "partition": "hash"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flagDecl, mc.Models[0]) {
		t.Fatalf("flags %+v\n-models %+v", flagDecl, mc.Models[0])
	}
	if flagDecl.Shards != 1 || flagDecl.Queue != 256 || flagDecl.Weight != 1 || flagDecl.Name != "RMC2" {
		t.Fatalf("defaults not applied: %+v", flagDecl)
	}
	// Unset flags carry their defaults: GOMAXPROCS shards, 256 MiB tables.
	def, err := parseSingleFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if def.Shards != runtime.GOMAXPROCS(0) || def.TableMB != 256 || def.Queue != 256 || def.Model != "RMC1" {
		t.Fatalf("flag defaults = %+v", def)
	}
}

func TestHandleModels(t *testing.T) {
	s := testMultiServer(t, 0)
	// Route one request to each model so the counters move.
	for _, body := range []string{`{"model":"ctr","batch":2}`, `{"model":"wide","batch":1}`} {
		rec := httptest.NewRecorder()
		s.handleInfer(rec, httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("infer %s: status %d: %s", body, rec.Code, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	s.handleModels(rec, httptest.NewRequest(http.MethodGet, "/models", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var body wire.Models
	decodeReply(t, rec, &body)
	if len(body.Models) != 2 || body.DefaultModel != "ctr" || body.HostBudget != 0 {
		t.Fatalf("body = %+v", body)
	}
	ctr, wide := body.Models[0], body.Models[1]
	if ctr.Name != "ctr" || ctr.Model != "RMC1" || ctr.Tables != 8 || ctr.Shards != 2 || ctr.Weight != 2 {
		t.Fatalf("ctr = %+v", ctr)
	}
	if wide.Name != "wide" || wide.Model != "WnD" || wide.Tables != 26 {
		t.Fatalf("wide = %+v", wide)
	}
	if ctr.Submitted != 1 || wide.Submitted != 1 {
		t.Fatalf("submitted = %d/%d", ctr.Submitted, wide.Submitted)
	}
	if ctr.Inferences != 2 || wide.Inferences != 1 {
		t.Fatalf("inferences = %d/%d", ctr.Inferences, wide.Inferences)
	}
	if ctr.MeanSimLatency == "0s" || wide.MeanSimLatency == "0s" {
		t.Fatalf("no latency observed: %q/%q", ctr.MeanSimLatency, wide.MeanSimLatency)
	}

	// Every /models entry decodes back into its hosted validated decl.
	for _, s := range []*server{s, knobServer(t)} {
		rec := httptest.NewRecorder()
		s.handleModels(rec, httptest.NewRequest(http.MethodGet, "/models", nil))
		var entries wire.Models
		decodeReply(t, rec, &entries)
		if len(entries.Models) != len(s.models) {
			t.Fatalf("/models lists %d models, hosting %d", len(entries.Models), len(s.models))
		}
		for _, e := range entries.Models {
			if m := s.byName[e.Name]; m == nil || e.ModelDecl != m.decl {
				t.Fatalf("/models decl %+v, hosted %+v", e.ModelDecl, m)
			}
		}
	}
}

func TestInferRoutesByModel(t *testing.T) {
	s := testMultiServer(t, 0)

	// Unknown model: 404 before any pool work.
	rec := httptest.NewRecorder()
	s.handleInfer(rec, httptest.NewRequest(http.MethodPost, "/infer",
		strings.NewReader(`{"model":"mystery","batch":1}`)))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown model: status %d", rec.Code)
	}

	// Explicit payload shaped for the *wide* model must be rejected when
	// routed (by default) to ctr, and accepted when addressed to wide.
	inf := make([][]int64, 26)
	for t := range inf {
		inf[t] = []int64{0}
	}
	payload, err := json.Marshal(wire.InferRequest{Sparse: [][][]int64{inf}})
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	s.handleInfer(rec, httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(string(payload))))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("wide payload on ctr: status %d: %s", rec.Code, rec.Body.String())
	}
	tagged, err := json.Marshal(wire.InferRequest{Model: "wide", Sparse: [][][]int64{inf}})
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	s.handleInfer(rec, httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(string(tagged))))
	if rec.Code != http.StatusOK {
		t.Fatalf("wide payload on wide: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp wire.InferReply
	decodeReply(t, rec, &resp)
	if resp.Model != "wide" || len(resp.Predictions) != 1 {
		t.Fatalf("resp = %+v", resp)
	}

	// The wide inference must have landed on wide's devices, not ctr's.
	if wideInf := s.byName["wide"].shards[0].snapshot().inferences; wideInf != 1 {
		t.Fatalf("wide device served %d inferences", wideInf)
	}

	// QPS is per model too.
	rec = httptest.NewRecorder()
	s.handleQPS(rec, httptest.NewRequest(http.MethodGet, "/qps?batch=2&model=wide", nil))
	var qps wire.QPS
	decodeReply(t, rec, &qps)
	if qps.Model != "wide" || qps.Shards != 1 {
		t.Fatalf("qps = %+v", qps)
	}
	rec = httptest.NewRecorder()
	s.handleQPS(rec, httptest.NewRequest(http.MethodGet, "/qps?model=mystery", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown qps model: status %d", rec.Code)
	}
}

// TestMultiModelConcurrentClients hammers both models through the real mux
// with a shared host budget, racing against a router close at the end.
// Run with -race: this is the concurrency acceptance test for the router
// path in its HTTP embedding.
func TestMultiModelConcurrentClients(t *testing.T) {
	s := testMultiServer(t, 3)
	srv := httptest.NewServer(s.routes())
	defer srv.Close()

	const (
		clients   = 8
		perClient = 5
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			model := [...]string{"ctr", "wide"}[c%2]
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(srv.URL+"/infer", "application/json",
					strings.NewReader(fmt.Sprintf(`{"model":%q,"batch":1}`, model)))
				if err != nil {
					errs <- err
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("model %s: status %d", model, resp.StatusCode)
				}
				//lint:allow errcheck response body already fully decoded; close error is immaterial
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Budgeted admission never leaks slots.
	if got := s.router.InFlight(); got != 0 {
		t.Fatalf("in flight after drain: %d", got)
	}
	// Every inference is accounted to the right model.
	var ctrInf, wideInf int64
	for _, sh := range s.byName["ctr"].shards {
		ctrInf += sh.snapshot().inferences
	}
	for _, sh := range s.byName["wide"].shards {
		wideInf += sh.snapshot().inferences
	}
	if want := int64(clients / 2 * perClient); ctrInf != want || wideInf != want {
		t.Fatalf("inferences ctr=%d wide=%d, want %d each", ctrInf, wideInf, want)
	}
}

// TestMultiReplaySynthetic: the mixed-trace replay is deterministic and
// each model's section is byte-identical to a solo replay of that model
// with the derived seed.
func TestMultiReplaySynthetic(t *testing.T) {
	rc := replayConfig{Mode: "synthetic", Rate: 100000, Requests: 90, ReqBatch: 1, Seed: 5}
	run := func() serving.MultiReplayResult {
		s := testMultiServer(t, 0)
		res, err := s.multiReplay(rc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("multi replay not deterministic:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(a.Models, []string{"ctr", "wide"}) {
		t.Fatalf("models = %v", a.Models)
	}
	// Weight 2:1 interleave.
	if a.PerModel["ctr"].Requests != 60 || a.PerModel["wide"].Requests != 30 {
		t.Fatalf("per-model requests = %d/%d",
			a.PerModel["ctr"].Requests, a.PerModel["wide"].Requests)
	}

	// Solo identity: replay ctr alone (fresh single-model server of the
	// same config) over the same derived stream seed and request count.
	m := serveDecls(t, 0, ctrDecl).def
	seed := serving.ModelReplaySeed(rc.Seed, "ctr")
	src, _, err := m.newSource(rc, seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serving.Replay(m.backends(), serving.ReplayConfig{
		Rate: rc.Rate, MaxBatch: m.decl.MaxBatch, Requests: 60, Seed: seed,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.PerModel["ctr"], want) {
		t.Fatalf("mixed != solo for ctr:\nmixed %+v\nsolo  %+v", a.PerModel["ctr"], want)
	}
}

// TestMultiReplayReport: the printed multi-model report carries the
// aggregate plus one section per model.
func TestMultiReplayReport(t *testing.T) {
	s := testMultiServer(t, 0)
	var sb strings.Builder
	rc := replayConfig{Mode: "synthetic", Rate: 100000, Requests: 30, ReqBatch: 1, Seed: 3}
	if err := s.runReplay(rc, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"replay synthetic: 2 models", "aggregate:", "--- model ctr (RMC1",
		"--- model wide (WnD", "pred check:", "sim latency:", "wall clock:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
