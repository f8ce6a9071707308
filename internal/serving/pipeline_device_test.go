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

// pipelineEpsilon bounds the relative gap between a saturated replay's
// makespan and sim.Pipeline over the batches' own measured stages. Stage
// times vary from batch to batch with the flash traffic; when the
// bottleneck moves between stages, a blocking pipeline pays waits the
// per-batch oracle does not see. On every case below one stage stays the
// bottleneck and the gap is zero.
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
// replay's stage pipeline: for each model, design and batch size, a
// saturated replay over a real device completes its batches when
// sim.Pipeline over their own measured stages says it should — within
// pipelineEpsilon on the searched design, exactly sim.Serial on the naive
// one, which does not pipeline. The analytic StageTimes interval is logged
// beside it; its gap is TembEstimate's error, not the scheduler's.
func TestReplayPipelineMatchesOracle(t *testing.T) {
	const batches = 48
	for _, name := range []string{"RMC1", "RMC3", "WnD", "NCF"} {
		cfg, err := model.ConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg.RowsPerTable = cfg.RowsForBudget(4 << 20)
		probe, err := core.New(cfg, core.Options{Parallel: 1})
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
				dev, err := core.New(cfg, core.Options{Design: design, Parallel: 1})
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
				// latency, each later one its own bottleneck stage.
				first := sim.Serial(rec.stages[0]...)
				oracle := first
				var serial time.Duration
				for i, st := range rec.stages {
					serial += sim.Serial(st...)
					if i > 0 {
						oracle += sim.Pipeline(st...).Interval
					}
				}
				measured := res.Elapsed
				if design == engine.DesignNaive {
					if measured != serial {
						t.Fatalf("%s naive n=%d: makespan %v, sim.Serial %v", name, n, measured, serial)
					}
					oracle = serial
				} else if gap := float64(measured-oracle) / float64(oracle); gap < 0 || gap > pipelineEpsilon {
					t.Fatalf("%s searched n=%d: makespan %v, sim.Pipeline oracle %v (gap %.4f)", name, n, measured, oracle, gap)
				}
				analytic := sim.Pipeline(dev.StageTimes(n)...).Interval
				if design == engine.DesignNaive {
					analytic = sim.Serial(dev.StageTimes(n)...)
				}
				t.Logf("%-4s %-9s n=%d interval: measured %v, oracle over measured stages %v, analytic StageTimes %v",
					name, design, n, (measured-first)/(batches-1), (oracle-first)/(batches-1), analytic)
			}
		}
	}
}
