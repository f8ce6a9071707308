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
// a seeded exponential process; requests are assigned to shards
// round-robin (exactly like Pool.Submit). Each shard is a blocking stage
// pipeline (sim.BlockingPipeline) over the stages its batches report: a
// core.Breakdown gives send | emb∥bot | top | read on the searched design,
// so the host pre-sends batch i+1 while the device computes batch i and
// reads back batch i-1 (the system-level pipelining of Section IV-D); any
// other backend is one stage of its batch latency. The emb stage is a lane
// stage over the batch's per-die loads: it holds up to sim.LaneDepth
// batches, so batch i+1 reads the dies batch i has finished with while
// batch i still drains. The shard forms its next batch the moment the
// pipeline can take it (BlockingPipeline.Vacant, which on the searched
// design also waits until the send would end as the bottom MLP frees),
// from every request that has already arrived, capped at MaxBatch — the
// deterministic mirror of the pool's drain-what's-queued coalescing.
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
	// PredCheck folds every prediction's bit pattern (in service order)
	// into one checksum: equal checksums across runs mean the functional
	// outputs matched bit for bit, not just the timing statistics.
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

	// Draw the whole arrival sequence: seeded exponential gaps, round-robin
	// shard assignment (the pool's dispatch rule).
	rng := tensor.NewRNG(cfg.Seed ^ 0x5e41)
	queues := make([][]replayJob, len(backends))
	var now sim.Time
	drawn := 0
	for drawn < cfg.Requests {
		req, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return ReplayResult{}, fmt.Errorf("serving: replay source: %w", err)
		}
		if verr := req.Validate(); verr != nil {
			return ReplayResult{}, fmt.Errorf("serving: replay request %d: %w", drawn, verr)
		}
		u := rng.Float64()
		if u <= 0 {
			u = 1e-12
		}
		now += sim.Time(-math.Log(u) / cfg.Rate * 1e9)
		queues[drawn%len(backends)] = append(queues[drawn%len(backends)],
			replayJob{req: req, arrival: now, id: int64(drawn)})
		drawn++
	}
	if drawn == 0 {
		return ReplayResult{}, errors.New("serving: replay source yielded no requests")
	}

	var (
		res       ReplayResult
		latencies []time.Duration
		end       sim.Time
	)
	res.PerShard = make([]int64, len(backends))
	res.PredCheck = 1469598103934665603 // FNV-1a offset basis
	traceModel := cfg.TraceModel
	if traceModel == "" {
		traceModel = "default"
	}
	for sid, jobs := range queues {
		var pipe sim.BlockingPipeline
		i := 0
		for i < len(jobs) {
			// The worker picks up the first waiting request the moment it
			// has arrived and the shard's pipeline can take it, then drains
			// everything that has already arrived, capped at MaxBatch (a
			// request larger than MaxBatch still runs, as its own batch).
			start := sim.Max(jobs[i].arrival, pipe.Vacant())
			batch := []Request{jobs[i].req}
			total := jobs[i].req.Count()
			j := i + 1
			for j < len(jobs) && jobs[j].arrival <= start && total+jobs[j].req.Count() <= cfg.MaxBatch {
				batch = append(batch, jobs[j].req)
				total += jobs[j].req.Count()
				j++
			}
			br := backends[sid].ServeBatch(batch)
			for _, p := range br.Preds {
				res.PredCheck ^= uint64(math.Float32bits(p))
				res.PredCheck *= 1099511628211 // FNV prime
			}
			complete := pipe.Push(start, batchStages(br))
			end = sim.Max(end, complete)
			var traced []obs.TraceRequest
			if cfg.Tracer != nil {
				traced = make([]obs.TraceRequest, 0, j-i)
			}
			for k := i; k < j; k++ {
				// Errored requests still rode the batch: their latency is
				// real, only their inferences are not served.
				latencies = append(latencies, time.Duration(complete-jobs[k].arrival))
				failed := false
				switch {
				case k-i < len(br.ReqErrs) && br.ReqErrs[k-i] != nil:
					res.Failed++
					failed = true
				case br.Err != nil:
					res.Failed++
					failed = true
				default:
					n := jobs[k].req.Count()
					res.Inferences += n
					res.PerShard[sid] += int64(n)
				}
				if cfg.Tracer != nil {
					traced = append(traced, obs.TraceRequest{
						ID:      jobs[k].id,
						Arrival: time.Duration(jobs[k].arrival),
						N:       jobs[k].req.Count(),
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
