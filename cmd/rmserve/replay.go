package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"rmssd/internal/obs"
	"rmssd/internal/serving"
	"rmssd/internal/wire"
)

// Trace replay mode: `rmserve -trace synthetic|criteo` drives the hosted
// models' shards open-loop from an externally supplied request stream
// instead of serving HTTP — the trace-driven analogue of RecSSD's
// evaluation, which replays measured Criteo access streams against the
// device. The arrival timeline is virtual and the source is deterministic,
// so the emitted report is byte-identical across runs with the same seed
// and configuration.
//
// In multi-model mode the replayed stream is the weighted interleave of one
// per-model source (each model draws inputs shaped for its own tables), and
// the replay itself is a serving.MultiReplay: each model's subsequence runs
// on its own seeded virtual timeline, so the per-model numbers are
// byte-identical to replaying that model alone.

// replayConfig parameterises one replay run.
type replayConfig struct {
	Mode     string  // "synthetic" or "criteo"
	CriteoIn string  // TSV path for Mode == "criteo"
	Rate     float64 // requests per simulated second
	Requests int     // request bound (criteo additionally stops at EOF)
	ReqBatch int     // inferences per request
	Seed     uint64
	// Tracer, when non-nil, records sim-time batch spans during the replay;
	// the report then gains per-stage breakdown tables and TraceOut (when
	// set) receives the trace as JSONL. Tracing never changes the replayed
	// numbers (pinned by the differential tests).
	Tracer   *obs.Tracer
	TraceOut string
}

// newSource builds the model's request source for the config, drawing from
// the given stream seed. The returned closer is nil for sources without an
// underlying file.
func (m *hostedModel) newSource(rc replayConfig, seed uint64) (serving.RequestSource, io.Closer, error) {
	var criteoIn string
	switch rc.Mode {
	case "synthetic":
		if rc.Requests <= 0 {
			return nil, nil, fmt.Errorf("rmserve: synthetic replay needs -requests > 0")
		}
	case "criteo":
		if rc.CriteoIn == "" {
			return nil, nil, fmt.Errorf("rmserve: -trace criteo needs -criteo-in")
		}
		criteoIn = rc.CriteoIn
	default:
		return nil, nil, fmt.Errorf("rmserve: unknown -trace mode %q (want synthetic or criteo)", rc.Mode)
	}
	tc := m.decl.Trace(m.cfg)
	tc.Seed = seed
	return serving.NewSource(tc, m.cfg.DenseDim, rc.ReqBatch, criteoIn)
}

// replayModels hosts the declarations and replays rc through their shards.
// It builds no router and no pool, so it starts no goroutine that outlives
// it.
func replayModels(mc wire.ModelsConfig, globalSeed uint64, rc replayConfig, w io.Writer) error {
	hosted, err := buildModels(mc, globalSeed)
	if err != nil {
		return err
	}
	return newHosting(hosted).runReplay(rc, w)
}

// replay drives the default model's shards and returns the deterministic
// result. ServeBatch is invoked from this goroutine only, so a live
// server's pools must be idle (no concurrent HTTP traffic).
func (s hosting) replay(rc replayConfig) (serving.ReplayResult, error) {
	m := s.def
	src, closer, err := m.newSource(rc, rc.Seed)
	if err != nil {
		return serving.ReplayResult{}, err
	}
	if closer != nil {
		defer closer.Close()
	}
	if rc.Tracer != nil {
		s.installReplaySinks(rc.Tracer)
	}
	return serving.Replay(m.backends(), serving.ReplayConfig{
		Rate: rc.Rate, MaxBatch: m.decl.MaxBatch, Requests: rc.Requests, Seed: rc.Seed,
		Tracer: rc.Tracer, TraceModel: m.decl.Name,
	}, src)
}

// multiReplay interleaves one source per hosted model by its declared
// weight and replays the mixed stream through every model's spec (the
// same backends a live pool serves). Criteo mode opens the TSV once per
// model: each model maps the same record stream onto its own table
// geometry.
func (s hosting) multiReplay(rc replayConfig) (serving.MultiReplayResult, error) {
	parts := make([]serving.TaggedPart, 0, len(s.models))
	models := make([]serving.ModelSpec, 0, len(s.models))
	for _, m := range s.models {
		// Each model draws its inputs from its own seeded stream; the seed
		// is derived exactly like the model's arrival seed so a solo rerun
		// can reproduce both the inputs and the timeline.
		src, closer, err := m.newSource(rc, serving.ModelReplaySeed(rc.Seed, m.decl.Name))
		if err != nil {
			return serving.MultiReplayResult{}, err
		}
		if closer != nil {
			defer closer.Close()
		}
		parts = append(parts, serving.TaggedPart{Model: m.decl.Name, Source: src, Weight: m.decl.Weight})
		models = append(models, m.spec())
	}
	src, err := serving.NewInterleavedSource(parts)
	if err != nil {
		return serving.MultiReplayResult{}, err
	}
	if rc.Tracer != nil {
		s.installReplaySinks(rc.Tracer)
	}
	return serving.MultiReplay(models, serving.MultiReplayConfig{
		Rate: rc.Rate, Requests: rc.Requests, Seed: rc.Seed, Tracer: rc.Tracer,
	}, src)
}

// formatReplayResult renders one model's replay section.
func formatReplayResult(sb *strings.Builder, res serving.ReplayResult) {
	fmt.Fprintf(sb, "served:       %d requests, %d inferences in %d device batches\n",
		res.Requests, res.Inferences, res.Batches)
	fmt.Fprintf(sb, "coalescing:   %.2f inferences/batch, %.2f requests/batch\n",
		res.MeanBatch, res.Coalesced)
	fmt.Fprintf(sb, "sim latency:  p50=%v p95=%v p99=%v max=%v\n",
		res.P50, res.P95, res.P99, res.Max)
	fmt.Fprintf(sb, "sim elapsed:  %v (%.0f inf/s simulated)\n", res.Elapsed, res.ThroughputQPS)
	fmt.Fprintf(sb, "pred check:   %016x\n", res.PredCheck)
	fmt.Fprintf(sb, "per shard:    ")
	for i, n := range res.PerShard {
		if i > 0 {
			fmt.Fprint(sb, " ")
		}
		fmt.Fprintf(sb, "%d", n)
	}
	fmt.Fprintf(sb, " (inferences)\n")
}

// formatCounters appends the model's device counter lines, each only when
// its feature is on, so the default configuration prints none and classic
// replay reports stay byte-identical: locality with dedup or the EV cache,
// scatter/gather on an array, and fault injection with its failed requests.
func formatCounters(sb *strings.Builder, m *hostedModel, res serving.ReplayResult) {
	snap := m.devices()
	if cached := m.decl.EVCacheMB > 0; cached || m.decl.Dedup {
		fmt.Fprintf(sb, "locality:     %d/%d lookups deduped", snap.DedupHits, snap.Lookups)
		if cached {
			fmt.Fprintf(sb, "; cache %d/%d hits (%.1f%%), %d evictions",
				snap.CacheHits, snap.CacheHits+snap.CacheMisses, 100*snap.HitRatio(), snap.CacheEvictions)
		}
		fmt.Fprintf(sb, "\n")
	}
	if a := snap.array; a != nil {
		fmt.Fprintf(sb, "array:        %d devices (%s); scattered", a.Devices, a.Partition)
		for _, n := range a.Scattered {
			fmt.Fprintf(sb, " %d", n)
		}
		fmt.Fprintf(sb, " lookups; %d partials in %d transfers (%d bytes)\n",
			a.Partials, a.Transfers, a.TransferBytes)
	}
	if m.decl.FaultRate > 0 {
		fmt.Fprintf(sb, "faults:       %d read faults, %d ECC retries, %d uncorrectable; %d requests failed\n",
			snap.ReadFaults, snap.ECCRetries, snap.Uncorrectable, res.Failed)
	}
}

// runReplay runs the replay and prints the report: the classic single-model
// report when one model is hosted, or one section per model plus the
// aggregate in multi-model mode.
func (s hosting) runReplay(rc replayConfig, w io.Writer) error {
	//lint:allow wallclock host-side harness reports real elapsed time next to simulated results
	start := time.Now()

	// Build the report in memory, then flush once so a failed write on the
	// destination surfaces as the command's error.
	var sb strings.Builder
	if len(s.models) == 1 {
		res, err := s.replay(rc)
		if err != nil {
			return err
		}
		fmt.Fprintf(&sb, "replay %s: model=%s shards=%d rate=%.0f req/s req-batch=%d seed=%d\n",
			rc.Mode, s.def.cfg.Name, len(s.def.shards), rc.Rate, rc.ReqBatch, rc.Seed)
		formatReplayResult(&sb, res)
		formatCounters(&sb, s.def, res)
		if rc.Tracer != nil {
			formatStages(&sb, rc.Tracer, s.def.decl.Name)
		}
	} else {
		res, err := s.multiReplay(rc)
		if err != nil {
			return err
		}
		fmt.Fprintf(&sb, "replay %s: %d models rate=%.0f req/s req-batch=%d seed=%d\n",
			rc.Mode, len(s.models), rc.Rate, rc.ReqBatch, rc.Seed)
		fmt.Fprintf(&sb, "aggregate:    %d requests, %d inferences in %d device batches\n",
			res.Requests, res.Inferences, res.Batches)
		for _, name := range res.Models {
			m := s.byName[name]
			fmt.Fprintf(&sb, "--- model %s (%s, %d shards, weight %d, seed %d)\n",
				name, m.cfg.Name, len(m.shards), m.decl.Weight, serving.ModelReplaySeed(rc.Seed, name))
			formatReplayResult(&sb, res.PerModel[name])
			formatCounters(&sb, m, res.PerModel[name])
			if rc.Tracer != nil {
				formatStages(&sb, rc.Tracer, name)
			}
		}
	}
	if rc.Tracer != nil && rc.TraceOut != "" {
		if err := writeTraceFile(rc.Tracer, rc.TraceOut); err != nil {
			return err
		}
	}
	//lint:allow wallclock host-side harness reports real elapsed time next to simulated results
	wall := time.Since(start)
	fmt.Fprintf(&sb, "wall clock:   %v host time\n", wall.Round(time.Millisecond))
	_, err := io.WriteString(w, sb.String())
	return err
}
