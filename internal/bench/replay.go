package bench

import (
	"time"

	"rmssd/internal/baseline"
	"rmssd/internal/core"
	"rmssd/internal/serving"
	"rmssd/internal/sim"
	"rmssd/internal/trace"
)

// saturatedRate offers every replayed request at once in simulated terms,
// so the shard queue never runs dry and the replay measures capacity.
const saturatedRate = 1e12

// timedBatcher serves count-only requests on one simulated system from its
// own trace stream, batch after batch on the system's own clock; Replay
// places the batches on its pipelined timeline from their Meta.
type timedBatcher struct {
	gen   *trace.Generator
	now   sim.Time
	infer func(at sim.Time, sparses [][][]int64) (done sim.Time, meta interface{}, err error)
	// serial accumulates the batches' unpipelined latencies, Σ
	// Breakdown.Total() on an RM-SSD.
	serial time.Duration
}

// rmssdBatcher times batches on an RM-SSD: its Breakdown lets Replay
// pipeline them.
func rmssdBatcher(r *core.RMSSD, gen *trace.Generator) *timedBatcher {
	return &timedBatcher{gen: gen, infer: func(at sim.Time, sparses [][][]int64) (sim.Time, interface{}, error) {
		done, bd, err := r.InferBatchTiming(at, sparses)
		return done, bd, err
	}}
}

// hostBatcher times batch iterations on a host baseline, which runs them
// one after another.
func hostBatcher(sys baseline.BatchSystem, gen *trace.Generator) *timedBatcher {
	return &timedBatcher{gen: gen, infer: func(at sim.Time, sparses [][][]int64) (sim.Time, interface{}, error) {
		done, _ := sys.InferBatchTiming(at, sparses)
		return done, nil, nil
	}}
}

func (b *timedBatcher) ServeBatch(reqs []serving.Request) serving.BatchResult {
	done, meta, err := b.infer(b.now, b.gen.Batch(serving.CountOf(reqs)))
	res := serving.BatchResult{Latency: done - b.now, Meta: meta, Err: err}
	b.serial += res.Latency
	b.now = done
	return res
}

// replayLoad replays the given number of single-inference requests
// through b at rate requests per simulated second, coalesced up to
// maxBatch.
func replayLoad(b serving.Batcher, rate float64, maxBatch, requests int, seed uint64) (serving.ReplayResult, error) {
	return serving.Replay([]serving.Batcher{b}, serving.ReplayConfig{
		Rate: rate, MaxBatch: maxBatch, Requests: requests, Seed: seed,
	}, serving.CountSource(1))
}
