package main

import (
	"fmt"
	"os"
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

// obsReplay runs one replay over freshly built shards, optionally traced,
// and returns the result plus the wall-clock spent inside Replay.
func obsReplay(cfg rmssd.ModelConfig, nshards, requests, reqBatch int, tr *obs.Tracer) (serving.ReplayResult, float64) {
	var sink func(i int) obs.SpanSink
	if tr != nil {
		sink = func(i int) obs.SpanSink { return tr.DeviceSink("default", i) }
	}
	backends, _ := newShards(cfg, nshards, sink)
	gen := rmssd.MustNewTrace(rmssd.TraceConfig{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 5,
	})
	src, err := serving.NewGeneratorSource(gen, reqBatch, cfg.DenseDim)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	start := time.Now() //lint:allow wallclock host-side perf harness measures real elapsed time
	res, err := serving.Replay(backends, serving.ReplayConfig{
		Rate: 100000, MaxBatch: 8, Requests: requests, Seed: 5, Tracer: tr,
	}, src)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	//lint:allow wallclock host-side perf harness measures real elapsed time
	return res, time.Since(start).Seconds()
}

// obsArtifact renders a tracer's full deterministic output: the JSONL
// trace followed by the Prometheus text of its registry.
func obsArtifact(tr *obs.Tracer) string {
	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sb.WriteString(tr.Registry().RenderPrometheus())
	return sb.String()
}

// runObs measures tracing overhead and checks trace determinism.
func runObs(modelName string, tableMB int64, nshards, requests, reqBatch int) ObsReport {
	cfg, err := rmssd.ModelByName(modelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg.RowsPerTable = cfg.RowsForBudget(tableMB << 20)
	if nshards <= 0 {
		nshards = 2
	}

	plainRes, plainSec := obsReplay(cfg, nshards, requests, reqBatch, nil)

	t1 := obs.NewTracer(obs.NewRegistry())
	res1, tracedSec := obsReplay(cfg, nshards, requests, reqBatch, t1)
	t2 := obs.NewTracer(obs.NewRegistry())
	res2, _ := obsReplay(cfg, nshards, requests, reqBatch, t2)

	art1, art2 := obsArtifact(t1), obsArtifact(t2)

	bd := t1.Breakdown("default")
	busy := bd.Send + bd.Emb + bd.Bot + bd.Top + bd.Read
	hist := t1.Registry().Histogram("rmssd_request_sim_latency_seconds", obs.L("model", "default"))

	rep := ObsReport{
		Model:    cfg.Name,
		TableMB:  tableMB,
		Shards:   nshards,
		Requests: requests,

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
	return rep
}
