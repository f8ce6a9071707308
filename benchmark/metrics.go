package main

import (
	"fmt"
	"math"
	"strings"
)

// metricDef declares one metric; BENCHMARK.json declares the same names
// and units (a test holds the two together).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, measured untraced.
var endToEnd = []metricDef{
	{"sim_qps", "inf/s", "higher"},
	{"sim_p50_ms", "ms", "lower"},
	{"sim_p99_ms", "ms", "lower"},
	{"goodput_rps", "req/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// cpuLayers are the layers whose CPU is reported on both paths: serve_cpu_us
// is the layer's share of rmserve CPU per request and replay_cpu_us its
// share of replay CPU per inference. evcache, array and serving.router keep
// their own profile buckets but report no CPU metric: on the workloads that
// do not configure them it would read a constant zero. Neither does core,
// whose own frames take fewer samples than a 100 Hz profile resolves
// (core.infer_us_per_inf times the layer instead).
var cpuLayers = []string{"engine.lookup", "engine.mlp", "flash", "embedding", "obs", "runtime"}

// perLayer are the traced run's metrics.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"loadgen.late_p99_ms", "ms", "lower"},
		{"loadgen.wall_p50_ms", "ms", "lower"},
		{"loadgen.wall_p99_ms", "ms", "lower"},
		{"rmserve.serve_cpu_us", "us", "lower"},
		{"rmserve.cpu_ms_per_req", "ms", "lower"},
		{"rmserve.req_bytes", "B", "lower"},
		{"serving.router.waited_ratio", "ratio", "lower"},
		{"serving.pool.serve_cpu_us", "us", "lower"},
		{"serving.pool.reqs_per_batch", "req/batch", "higher"},
		{"serving.pool.infer_per_batch", "inf/batch", "higher"},
		{"serving.replay.infer_per_s", "inf/s", "higher"},
		{"serving.replay.self_us_per_inf", "us", "lower"},
		{"serving.replay.queue_mean_ms", "ms", "lower"},
		{"serving.replay.queue_p99_ms", "ms", "lower"},
		{"serving.replay.reqs_per_batch", "req/batch", "higher"},
		{"serving.replay.qps_vs_analytic", "ratio", "higher"},
		{"core.infer_us_per_inf", "us", "lower"},
		{"core.allocs_per_inf", "count", "lower"},
		{"core.send_share", "ratio", "lower"},
		{"core.read_share", "ratio", "lower"},
		{"engine.lookup.emb_ms", "ms", "lower"},
		{"engine.lookup.lookups_per_inf", "count", "lower"},
		{"engine.lookup.dedup_ratio", "ratio", "higher"},
		{"engine.mlp.bot_share", "ratio", "lower"},
		{"engine.mlp.top_share", "ratio", "lower"},
		{"evcache.hit_ratio", "ratio", "higher"},
		{"evcache.evictions_per_klookup", "count", "lower"},
		{"flash.vector_reads_per_inf", "count", "lower"},
		{"flash.page_reads_per_inf", "count", "lower"},
		{"flash.ecc_retries_per_kread", "count", "lower"},
		{"flash.channel_imbalance", "ratio", "lower"},
		{"array.scatter_imbalance", "ratio", "lower"},
		{"array.transfer_bytes_per_batch", "B", "lower"},
		{"obs.trace_overhead_pct", "%", "lower"},
	}
	for _, l := range cpuLayers {
		defs = append(defs,
			metricDef{l + ".serve_cpu_us", "us", "lower"},
			metricDef{l + ".replay_cpu_us", "us", "lower"})
	}
	return defs
}()

// value is one measured metric with the number of samples behind it.
type value struct {
	v    float64
	n    int    // samples the value summarises
	note string // what the samples are
}

// report is one workload run's outcome.
type report struct {
	workload  string
	metrics   map[string]value
	attempted int64
	failed    int64
	problems  []string // failed correctness checks
}

func (r *report) set(name string, v float64, n int, note string) {
	r.metrics[name] = value{v, n, note}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// resultLine is the machine-readable result of one workload run; the
// "== name" header of the table printed above it names the workload.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
}

type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders the report as a result line; the measured metrics must be
// exactly the declared ones (defs).
func (r *report) line(defs []metricDef) (resultLine, error) {
	out := resultLine{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricResult, len(defs)),
	}
	if len(r.metrics) != len(defs) {
		return resultLine{}, fmt.Errorf("%s: measured %d metrics, declared %d", r.workload, len(r.metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			return resultLine{}, fmt.Errorf("%s: metric %s was not measured", r.workload, d.name)
		}
		if math.IsNaN(m.v) || math.IsInf(m.v, 0) {
			return resultLine{}, fmt.Errorf("%s: metric %s is %v", r.workload, d.name, m.v)
		}
		out.Metrics[d.name] = metricResult{m.v, d.unit}
	}
	return out, nil
}

// text renders the declared metrics (each with its unit and sample count)
// and the correctness verdict as a human-readable table.
func (r *report) text(defs []metricDef) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s\n", r.workload)
	for _, d := range defs {
		m := r.metrics[d.name]
		fmt.Fprintf(&sb, "  %-34s %14.4f %-9s n=%-7d %s\n", d.name, m.v, d.unit, m.n, m.note)
	}
	fmt.Fprintf(&sb, "  attempted %d, failed %d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(&sb, "  WRONG: %s\n", p)
	}
	return sb.String()
}
