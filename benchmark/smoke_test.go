package main

import (
	"context"
	"net/http"
	"testing"
	"time"

	"rmssd"
)

// tinyPredCheck pins each workload's load-leg prediction checksum at tiny
// scale and the default seed.
var tinyPredCheck = map[string]uint64{
	"rmc1-cold":        0xb41e4209915457b9,
	"rmc3-mlp":         0xc387637d433c70ce,
	"rmc1-hot-cached":  0x30a4d1add1ec26fe,
	"mix-array-router": 0x4075347fcc649297,
}

// tiny scales a workload down for the smoke tests: 4 MiB tables and 64
// requests.
func tiny(w workload) workload {
	w.models = append([]modelDecl(nil), w.models...)
	for i := range w.models {
		w.models[i].TableMB = 4
	}
	w.requests = 64
	w.predCheck = tinyPredCheck[w.name]
	return w
}

// smokeEnv builds rmserve once for the smoke tests.
func smokeEnv(t *testing.T) env {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin, err := buildServer(context.Background(), root, dir)
	if err != nil {
		t.Fatal(err)
	}
	return env{tmp: dir, rmserve: bin, warmUp: 100 * time.Millisecond}
}

// Every workload's replay leg runs at tiny scale with all replay checks
// (no failures, both legs and the traced legs bit-identical, the pinned
// checksum), and one live request per workload is answered with exactly
// the replayed prediction.
func TestSmokeEveryWorkload(t *testing.T) {
	e := smokeEnv(t)
	ctx := context.Background()
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			in, err := makeInputs(w, defaultSeed)
			if err != nil {
				t.Fatal(err)
			}
			_, sat, load, err := replayLegs(w, in, defaultSeed, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, tsat, tload, err := replayLegs(w, in, defaultSeed,
				rmssd.NewObsTracer(rmssd.NewObsRegistry()), rmssd.NewObsTracer(rmssd.NewObsRegistry()))
			if err != nil {
				t.Fatal(err)
			}
			r := &report{workload: w.name, metrics: map[string]value{}}
			r.checkReplay(w, in, defaultSeed, sat, load)
			r.checkReplay(w, in, defaultSeed, tsat, tload)
			if a, b := simsOf(w, sat, load), simsOf(w, tsat, tload); a != b {
				t.Errorf("traced sims %+v, untraced %+v", b, a)
			}
			for _, p := range r.problems {
				t.Error(p)
			}

			models, err := writeModels(w, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			srv, _, err := startServer(ctx, e.rmserve, models, w.hostBudget)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.stop()
			client := newLoadClient(1)
			defer client.CloseIdleConnections()
			//lint:allow wallclock the live request is sent now
			out := openLoop(ctx, client, srv.url+"/infer", []shot{{body: in.bodies[0]}}, time.Now(), 1)[0]
			if out.err != nil || out.status != http.StatusOK {
				t.Fatalf("live request: status %d, %v", out.status, out.err)
			}
			if !sameBits(out.preds, load.preds[0]) {
				t.Errorf("live predictions %v, replay %v", out.preds, load.preds[0])
			}
		})
	}
}

// A whole run, untraced and traced, emits exactly the declared metrics and
// passes every correctness check. The mixed workload exercises every path:
// arrays, several models and the router.
func TestRunEmitsDeclaredMetrics(t *testing.T) {
	e := smokeEnv(t)
	w, err := findWorkload("mix-array-router")
	if err != nil {
		t.Fatal(err)
	}
	w = tiny(w)
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		r, err := runWorkload(context.Background(), e, w, defaultSeed, 1, traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if _, err := r.line(defs); err != nil {
			t.Errorf("traced=%v: %v", traced, err)
		}
		for _, p := range r.problems {
			t.Errorf("traced=%v: %s", traced, p)
		}
	}
}
