// Package serving models an online inference service in front of RM-SSD
// devices: requests arrive continuously, a batcher groups them into device
// batches, and each device serves its batches. This connects the paper's
// device-level results to its motivation — the "strict service level
// agreement requirements of recommendation systems" (Section I) are
// tail-latency requirements on exactly this queue.
//
// Pool and Router serve live traffic on the host clock; Replay and
// MultiReplay drive the same backends on a deterministic virtual timeline.
package serving

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"rmssd/internal/obs"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
)

// Trace replay: drive the sharded backends open-loop from an externally
// supplied request stream (a Criteo trace, a synthetic generator) on a
// virtual arrival timeline.
//
// Replay pushes real payloads through real simulated devices. Arrivals are
// a seeded exponential process into one arrival-ordered queue, and the
// next batch goes to the shard that can start it soonest (the rule
// Pool.Submit follows on the host clock). Each shard is a blocking stage
// pipeline (sim.BlockingPipeline) over the stages its batches report: a
// core.Breakdown gives send | emb∥bot | top | read on the searched design,
// so the host pre-sends batch i+1 while the device computes batch i and
// reads back batch i-1 (the system-level pipelining of Section IV-D); any
// other backend is one stage of its batch latency. The emb stage is a lane
// stage over the batch's per-die loads: it holds up to sim.LaneDepth
// batches, so batch i+1 reads the dies batch i has finished with while
// batch i still drains. A shard can start the head request at its
// arrival or once the shard's pipeline can take a batch
// (BlockingPipeline.Vacant, which on the searched design also waits until
// the send would end as the bottom MLP frees), whichever is later. The
// shard that can start it earliest forms the next batch then, from every
// request that has already arrived, capped at MaxBatch — the
// deterministic mirror of the pool's drain-what's-queued coalescing. Ties
// go to the shard whose latest batch completed earliest (a shard that has
// not served yet counts as completing at 0), then to the lowest index, so
// shards that are all idle take requests in turn.
// Because the whole timeline is virtual and the source is deterministic,
// two runs with the same seed, source and shard count produce
// byte-identical results.

// RequestSource yields successive requests of a trace; it returns io.EOF
// when the trace is exhausted.
type RequestSource interface {
	Next() (Request, error)
}

// ReplayConfig tunes the open-loop replay.
type ReplayConfig struct {
	// Rate is the offered load in requests per simulated second.
	Rate float64
	// MaxBatch caps the coalesced device batch per shard.
	MaxBatch int
	// Requests bounds how many requests to draw from the source; 0 means
	// replay until the source is exhausted (sources that never end, like
	// GeneratorSource, then require a positive bound).
	Requests int
	// Seed drives the exponential arrival process.
	Seed uint64
	// Tracer, when non-nil, records one obs.BatchRecord per device batch
	// (requests, arrivals, admission and completion) and feeds the
	// tracer's metrics registry. The caller is responsible for installing
	// the tracer's DeviceSink on each backend's device under the same
	// (TraceModel, shard index) key so device stage spans join the
	// records. Tracing observes the replay; it never changes its results.
	Tracer *obs.Tracer
	// TraceModel is the model label on trace records and metrics; empty
	// means "default".
	TraceModel string
}

// Validate reports configuration errors.
func (c ReplayConfig) Validate() error {
	switch {
	case c.Rate <= 0:
		return fmt.Errorf("serving: replay rate %v", c.Rate)
	case c.MaxBatch <= 0:
		return fmt.Errorf("serving: replay max batch %d", c.MaxBatch)
	case c.Requests < 0:
		return fmt.Errorf("serving: replay %d requests", c.Requests)
	}
	return nil
}

// ReplayResult summarises one replay run. All latencies are simulated
// (arrival to batch completion, including queueing and waits on busy
// pipeline stages); wall-clock timing is the caller's concern.
type ReplayResult struct {
	Requests   int     // requests served (successfully or with an error)
	Inferences int     // inferences served successfully
	Batches    int     // device batches issued
	MeanBatch  float64 // inferences per device batch
	// Failed counts requests the device answered with an error (typed
	// validation errors or injected read faults). Their batches still ran
	// and their latencies still count; only their predictions are absent.
	Failed int
	// Coalesced is the mean number of requests per device batch.
	Coalesced float64
	// Latency percentiles over requests (simulated, queueing included).
	P50, P95, P99, Max time.Duration
	// Elapsed is the simulated makespan (last batch completion).
	Elapsed time.Duration
	// ThroughputQPS is inferences per simulated second over the makespan.
	ThroughputQPS float64
	// PerShard counts inferences served by each shard.
	PerShard []int64
	// PredCheck folds every prediction's bit pattern into one checksum:
	// equal checksums across runs mean the functional outputs matched bit
	// for bit, not just the timing statistics. It folds by stream: request
	// draw index mod the shard count picks the stream, streams go in
	// index order and each stream in draw order, so the checksum does not
	// depend on which shard served which request.
	PredCheck uint64
}

// replayJob is one arrived request awaiting service.
type replayJob struct {
	req     Request
	arrival sim.Time
	id      int64 // global draw index, the trace's inference ID
}

// Replay streams the source through the backends on a virtual timeline.
// ServeBatch is invoked from this goroutine only, so the backends must not
// concurrently serve a live Pool.
func Replay(backends []Batcher, cfg ReplayConfig, src RequestSource) (ReplayResult, error) {
	if err := cfg.Validate(); err != nil {
		return ReplayResult{}, err
	}
	if len(backends) == 0 {
		return ReplayResult{}, errors.New("serving: replay needs at least one backend")
	}
	if cfg.Requests == 0 {
		cfg.Requests = math.MaxInt
	}

	// Draw the whole arrival sequence: seeded exponential gaps into one
	// arrival-ordered queue.
	rng := tensor.NewRNG(cfg.Seed ^ 0x5e41)
	var (
		jobs []replayJob
		now  sim.Time
	)
	for len(jobs) < cfg.Requests {
		req, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return ReplayResult{}, fmt.Errorf("serving: replay source: %w", err)
		}
		if verr := req.Validate(); verr != nil {
			return ReplayResult{}, fmt.Errorf("serving: replay request %d: %w", len(jobs), verr)
		}
		u := rng.Float64()
		if u <= 0 {
			u = 1e-12
		}
		now += sim.Time(-math.Log(u) / cfg.Rate * 1e9)
		jobs = append(jobs, replayJob{req: req, arrival: now, id: int64(len(jobs))})
	}
	if len(jobs) == 0 {
		return ReplayResult{}, errors.New("serving: replay source yielded no requests")
	}

	var (
		res       ReplayResult
		latencies []time.Duration
		end       sim.Time
	)
	res.PerShard = make([]int64, len(backends))
	res.PredCheck = fnvOffset
	// Stream 0 folds straight into PredCheck; the other streams keep their
	// prediction bits in draw order until every stream before them is in.
	streams := make([][]uint32, len(backends))
	traceModel := cfg.TraceModel
	if traceModel == "" {
		traceModel = "default"
	}
	pipes := make([]sim.BlockingPipeline, len(backends))
	last := make([]sim.Time, len(backends)) // each shard's latest completion
	for i := 0; i < len(jobs); {
		// The shard that can start the head request soonest takes it.
		sid, start := 0, sim.Max(jobs[i].arrival, pipes[0].Vacant())
		for s := 1; s < len(pipes); s++ {
			at := sim.Max(jobs[i].arrival, pipes[s].Vacant())
			if at < start || (at == start && last[s] < last[sid]) {
				sid, start = s, at
			}
		}
		// It drains everything that has already arrived, capped at
		// MaxBatch (a request larger than MaxBatch still runs, as its own
		// batch).
		batch := []Request{jobs[i].req}
		total := jobs[i].req.Count()
		j := i + 1
		for j < len(jobs) && jobs[j].arrival <= start && total+jobs[j].req.Count() <= cfg.MaxBatch {
			batch = append(batch, jobs[j].req)
			total += jobs[j].req.Count()
			j++
		}
		br := backends[sid].ServeBatch(batch)
		complete := pipes[sid].Push(start, batchStages(br))
		last[sid] = complete
		end = sim.Max(end, complete)
		var traced []obs.TraceRequest
		if cfg.Tracer != nil {
			traced = make([]obs.TraceRequest, 0, j-i)
		}
		off := 0
		for k := i; k < j; k++ {
			// Errored requests still rode the batch: their latency is
			// real, only their inferences are not served.
			latencies = append(latencies, time.Duration(complete-jobs[k].arrival))
			n := jobs[k].req.Count()
			reqErr := k-i < len(br.ReqErrs) && br.ReqErrs[k-i] != nil
			if !reqErr {
				// Every request not failed on its own owns the next
				// window of predictions; a failed batch carries none.
				w := br.Preds[off:min(off+n, len(br.Preds))]
				off += len(w)
				if s := int(jobs[k].id % int64(len(backends))); s == 0 {
					for _, p := range w {
						res.PredCheck = fnvFold(res.PredCheck, math.Float32bits(p))
					}
				} else {
					for _, p := range w {
						streams[s] = append(streams[s], math.Float32bits(p))
					}
				}
			}
			failed := reqErr || br.Err != nil
			if failed {
				res.Failed++
			} else {
				res.Inferences += n
				res.PerShard[sid] += int64(n)
			}
			if cfg.Tracer != nil {
				traced = append(traced, obs.TraceRequest{
					ID:      jobs[k].id,
					Arrival: time.Duration(jobs[k].arrival),
					N:       n,
					Failed:  failed,
				})
			}
		}
		if cfg.Tracer != nil {
			cfg.Tracer.EndBatch(traceModel, sid, traced, time.Duration(start), time.Duration(complete))
		}
		res.Batches++
		i = j
	}
	for _, bits := range streams[1:] {
		for _, b := range bits {
			res.PredCheck = fnvFold(res.PredCheck, b)
		}
	}

	res.Requests = len(latencies)
	res.Elapsed = time.Duration(end)
	if res.Batches > 0 {
		res.MeanBatch = float64(res.Inferences) / float64(res.Batches)
		res.Coalesced = float64(res.Requests) / float64(res.Batches)
	}
	if res.Elapsed > 0 {
		res.ThroughputQPS = float64(res.Inferences) / res.Elapsed.Seconds()
	}
	res.P50, res.P95, res.P99, res.Max = obs.Quantiles(latencies)
	return res, nil
}

const (
	fnvOffset = 1469598103934665603 // FNV-1a 64-bit offset basis
	fnvPrime  = 1099511628211
)

// fnvFold folds one prediction's bit pattern into an FNV-1a checksum.
func fnvFold(h uint64, bits uint32) uint64 { return (h ^ uint64(bits)) * fnvPrime }

// stager is batch metadata that knows the pipeline stages its batch
// occupied (core.Breakdown).
type stager interface {
	Stages() []sim.Stage
}

// batchStages returns the stages a served batch occupies on its shard's
// pipeline: the ones its metadata reports, or one stage of its latency.
func batchStages(br BatchResult) []sim.Stage {
	if s, ok := br.Meta.(stager); ok {
		return s.Stages()
	}
	return []sim.Stage{{Name: "batch", Time: br.Latency}}
}
