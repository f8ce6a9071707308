package core_test

import (
	"testing"
	"time"

	"rmssd/internal/array"
	"rmssd/internal/core"
	"rmssd/internal/engine"
	"rmssd/internal/flash"
	"rmssd/internal/model"
	"rmssd/internal/tensor"
	"rmssd/internal/trace"
)

// TestBreakdownTotalIsBatchLatency is the regression test for Total
// understating the naive design's latency: whatever the design, on a single
// device or a one-member array, served or failed by an injected read fault,
// a batch's Total equals its simulated end-to-end time, and its Stages are
// the pipeline stages it occupied.
func TestBreakdownTotalIsBatchLatency(t *testing.T) {
	type backend interface {
		InferBatch(at time.Duration, denses []tensor.Vector, sparses [][][]int64) ([]float32, time.Duration, core.Breakdown, error)
	}
	failed := 0
	for _, name := range []string{"RMC1", "RMC3"} {
		cfg, err := model.ConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg.RowsPerTable = 2048
		for _, design := range []engine.Design{engine.DesignSearched, engine.DesignNaive} {
			opts := core.Options{Design: design, Parallel: 1, FaultPlan: flash.FaultPlan{Rate: 0.4, Seed: 3}}
			dev, err := core.New(cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			arr, err := array.New(cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range []struct {
				kind string
				dev  backend
			}{{"device", dev}, {"array", arr}} {
				gen := trace.MustNew(trace.Config{Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 5})
				var at time.Duration
				served := 0
				for i, n := range []int{1, 4, 2, 8, 3, 1, 6, 2} {
					denses := make([]tensor.Vector, n)
					for j := range denses {
						denses[j] = gen.DenseInput(8*i+j, cfg.DenseDim)
					}
					_, done, bd, err := b.dev.InferBatch(at, denses, gen.Batch(n))
					if err != nil {
						failed++
					} else {
						served++
					}
					if bd.Total() != done-at {
						t.Fatalf("%s %s design %d batch %d (err %v): Total %v, done-at %v (%+v)",
							name, b.kind, design, i, err, bd.Total(), done-at, bd)
					}
					if bd.Overlap != (design == engine.DesignSearched) {
						t.Fatalf("%s %s design %d: Overlap = %v", name, b.kind, design, bd.Overlap)
					}
					// A pipelined batch occupies send, emb∥bot, top and read;
					// one that failed in its embedding stage only send and emb.
					want := 1
					switch {
					case bd.Overlap && err != nil:
						want = 2
					case bd.Overlap:
						want = 4
					}
					if got := len(bd.Stages()); got != want {
						t.Fatalf("%s %s design %d batch %d (err %v): %d stages, want %d", name, b.kind, design, i, err, got, want)
					}
					at = done
				}
				if served == 0 {
					t.Fatalf("%s %s design %d: no batch served", name, b.kind, design)
				}
			}
		}
	}
	if failed == 0 {
		t.Fatal("the fault plan failed no batch; the failed-batch case went untested")
	}
}
