package serving_test

import (
	"testing"
	"time"

	"rmssd/internal/core"
	"rmssd/internal/engine"
	"rmssd/internal/model"
	"rmssd/internal/serving"
	"rmssd/internal/sim"
	"rmssd/internal/trace"
)

// pipelineEpsilon bounds the relative slack of the bracket
// TestReplayPipelineMatchesOracle puts the measured replay interval in.
// Stage times vary from batch to batch with the flash traffic; when the
// bottleneck moves between stages, a blocking pipeline pays waits the
// per-batch oracle does not see.
const pipelineEpsilon = 0.005

// stageRecorder serves count-only requests on one device from a trace
// stream and keeps every batch's measured stages.
type stageRecorder struct {
	dev    *core.RMSSD
	gen    *trace.Generator
	now    time.Duration
	stages [][]sim.Stage
}

func (s *stageRecorder) ServeBatch(reqs []serving.Request) serving.BatchResult {
	done, bd, err := s.dev.InferBatchTiming(s.now, s.gen.Batch(serving.CountOf(reqs)))
	res := serving.BatchResult{Latency: done - s.now, Meta: bd, Err: err}
	s.stages = append(s.stages, bd.Stages())
	s.now = done
	return res
}

// TestReplayPipelineMatchesOracle is the device differential for the
// replay's stage pipeline. For each model, design and batch size, a
// saturated replay over a real device must land its steady-state interval
// in a bracket. The upper end is the blocking oracle: sim.Pipeline over the
// batches' own measured stages, each batch holding its emb stage until its
// busiest die is done. The lower end is the analytic Eq. 1a interval
// (sim.Pipeline over StageTimes), which spreads every batch's reads evenly
// over all dies. The replay's emb stage overlaps consecutive batches on
// per-die lanes, so it sits between the two: the gap to the analytic
// interval is die imbalance, the gap to the blocking oracle what the lanes
// recover. Both ends hold within pipelineEpsilon. The naive design does not
// pipeline and must equal sim.Serial exactly.
func TestReplayPipelineMatchesOracle(t *testing.T) {
	const batches = 48
	for _, name := range []string{"RMC1", "RMC3", "WnD", "NCF"} {
		cfg, err := model.ConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg.RowsPerTable = cfg.RowsForBudget(4 << 20)
		probe, err := core.New(cfg, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Batch 1 and the searched design's batch; RMC1's is 1 itself, so it
		// also covers the coalesced batch of 8 rmserve serves it at.
		sizes := []int{1, probe.NBatch()}
		if probe.NBatch() == 1 {
			sizes[1] = 8
		}
		for _, design := range []engine.Design{engine.DesignSearched, engine.DesignNaive} {
			for _, n := range sizes {
				dev, err := core.New(cfg, core.Options{Design: design})
				if err != nil {
					t.Fatal(err)
				}
				rec := &stageRecorder{dev: dev, gen: trace.MustNew(trace.Config{
					Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 11,
				})}
				res, err := serving.Replay([]serving.Batcher{rec}, serving.ReplayConfig{
					Rate: 1e12, MaxBatch: n, Requests: batches, Seed: 1,
				}, serving.CountSource(n))
				if err != nil {
					t.Fatal(err)
				}
				if res.Batches != batches || len(rec.stages) != batches {
					t.Fatalf("%s design %d n=%d: %d batches, want %d", name, design, n, res.Batches, batches)
				}
				// Every arrival lands at t=0: the first batch takes its full
				// latency, each later one at least its bottleneck stage.
				first := sim.Serial(rec.stages[0]...)
				var blocking, serial time.Duration
				for i, st := range rec.stages {
					serial += sim.Serial(st...)
					if i > 0 {
						blocking += sim.Pipeline(st...).Interval
					}
				}
				if design == engine.DesignNaive {
					if res.Elapsed != serial {
						t.Fatalf("%s naive n=%d: makespan %v, sim.Serial %v", name, n, res.Elapsed, serial)
					}
					continue
				}
				measured := float64(res.Elapsed-first) / (batches - 1)
				oracle := float64(blocking) / (batches - 1)
				analytic := float64(sim.Pipeline(dev.StageTimes(n)...).Interval)
				t.Logf("%-4s n=%d interval: analytic %.0fns <= measured %.0fns <= blocking oracle %.0fns",
					name, n, analytic, measured, oracle)
				if measured > oracle*(1+pipelineEpsilon) {
					t.Fatalf("%s searched n=%d: interval %.0fns above the blocking oracle %.0fns", name, n, measured, oracle)
				}
				if measured < analytic*(1-pipelineEpsilon) {
					t.Fatalf("%s searched n=%d: interval %.0fns below the analytic Eq. 1a interval %.0fns", name, n, measured, analytic)
				}
			}
		}
	}
}
