package main

import (
	"strings"
	"time"

	"rmssd"
	"rmssd/internal/obs"
	"rmssd/internal/serving"
)

// Observability measurement: the same deterministic replay is run
// untraced, then traced twice. The report records (a) the host-side cost
// of tracing (wall-clock delta against the untraced run), (b) whether
// two traced reruns emit byte-identical JSONL and Prometheus text (the
// determinism contract), (c) whether tracing perturbed the replayed
// numbers (pred check must match the untraced run), and (d) a digest of
// the registry the tracer fed — rmperf is itself a consumer of the
// metrics surface, so a schema drift shows up here as well as in the
// conformance golden.

// ObsReport records the tracing overhead and determinism measurement.
type ObsReport struct {
	Model    string `json:"model"`
	TableMB  int64  `json:"table_mb"`
	Shards   int    `json:"shards"`
	Requests int    `json:"requests"`

	UntracedSeconds float64 `json:"untraced_seconds"`
	TracedSeconds   float64 `json:"traced_seconds"`
	OverheadPercent float64 `json:"tracing_overhead_percent"`

	BatchRecords    int64 `json:"batch_records"`
	TraceBytes      int   `json:"trace_bytes"`
	RerunIdentical  bool  `json:"trace_rerun_byte_identical"`
	ResultUnchanged bool  `json:"traced_result_byte_identical"`

	LatencyHistCount  int64   `json:"latency_histogram_count"`
	LatencySumSeconds float64 `json:"latency_histogram_sum_seconds"`
	EmbSharePercent   float64 `json:"emb_stage_share_percent"`
}

// The measurement's table budget, shard count and replayed requests, on
// RMC1 at the serving measurement's request size.
const (
	obsTableMB  = 64 // MiB
	obsShards   = 2
	obsRequests = 400
)

// obsReplay runs one replay over fresh shards of the model m, optionally
// traced, and returns the result plus the wall-clock spent inside Replay.
func obsReplay(m *rmssd.Model, tr *obs.Tracer) (serving.ReplayResult, float64, error) {
	cfg := m.Cfg
	tc := rmssd.TraceConfig{Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 1}
	shards, err := serving.NewShards(m, rmssd.DeviceOptions{}, obsShards, tc)
	if err != nil {
		return serving.ReplayResult{}, 0, err
	}
	if tr != nil {
		for i, sh := range shards {
			sh.Device().(*rmssd.Device).SetSpanSink(tr.DeviceSink("default", i))
		}
	}
	tc.Seed = 5
	gen, err := rmssd.NewTrace(tc)
	if err != nil {
		return serving.ReplayResult{}, 0, err
	}
	src, err := serving.NewGeneratorSource(gen, reqBatch, cfg.DenseDim)
	if err != nil {
		return serving.ReplayResult{}, 0, err
	}
	start := time.Now() //lint:allow wallclock host-side perf harness measures real elapsed time
	res, err := serving.Replay(serving.Batchers(shards), serving.ReplayConfig{
		Rate: 100000, MaxBatch: 8, Requests: obsRequests, Seed: 5, Tracer: tr,
	}, src)
	//lint:allow wallclock host-side perf harness measures real elapsed time
	return res, time.Since(start).Seconds(), err
}

// obsArtifact renders a tracer's full deterministic output: the JSONL
// trace followed by the Prometheus text of its registry.
func obsArtifact(tr *obs.Tracer) (string, error) {
	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		return "", err
	}
	sb.WriteString(tr.Registry().RenderPrometheus())
	return sb.String(), nil
}

// runObs measures tracing overhead and checks trace determinism.
// The three replays share one model, as a hosted model's shards do.
func runObs() (ObsReport, error) {
	cfg := rmssd.RMC1()
	cfg.RowsPerTable = cfg.RowsForBudget(obsTableMB << 20)
	m, err := rmssd.BuildModel(cfg)
	if err != nil {
		return ObsReport{}, err
	}

	plainRes, plainSec, err := obsReplay(m, nil)
	if err != nil {
		return ObsReport{}, err
	}
	t1 := obs.NewTracer(obs.NewRegistry())
	res1, tracedSec, err := obsReplay(m, t1)
	if err != nil {
		return ObsReport{}, err
	}
	t2 := obs.NewTracer(obs.NewRegistry())
	res2, _, err := obsReplay(m, t2)
	if err != nil {
		return ObsReport{}, err
	}
	art1, err := obsArtifact(t1)
	if err != nil {
		return ObsReport{}, err
	}
	art2, err := obsArtifact(t2)
	if err != nil {
		return ObsReport{}, err
	}

	bd := t1.Breakdown("default")
	busy := bd.Send + bd.Emb + bd.Bot + bd.Top + bd.Read
	hist := t1.Registry().Histogram("rmssd_request_sim_latency_seconds", obs.L("model", "default"))

	rep := ObsReport{
		Model:    cfg.Name,
		TableMB:  obsTableMB,
		Shards:   obsShards,
		Requests: obsRequests,

		UntracedSeconds: plainSec,
		TracedSeconds:   tracedSec,

		BatchRecords:   bd.Batches,
		TraceBytes:     len(art1),
		RerunIdentical: art1 == art2 && res1.PredCheck == res2.PredCheck,
		ResultUnchanged: res1.PredCheck == plainRes.PredCheck &&
			res1.Elapsed == plainRes.Elapsed && res1.P99 == plainRes.P99,

		LatencyHistCount:  hist.Count(),
		LatencySumSeconds: hist.Sum().Seconds(),
	}
	if plainSec > 0 {
		rep.OverheadPercent = 100 * (tracedSec - plainSec) / plainSec
	}
	if busy > 0 {
		rep.EmbSharePercent = 100 * float64(bd.Emb) / float64(busy)
	}
	return rep, nil
}
