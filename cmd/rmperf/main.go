// Command rmperf measures the host-side performance of the parallel
// simulation core and writes a machine-readable report (BENCH_simcore.json)
// so the perf trajectory is tracked across PRs.
//
// Two measurements:
//
//  1. Sweep: a fixed set of rmbench experiments is evaluated twice — once
//     with -parallel 1 (the plain sequential loop) and once with -parallel N
//     worker goroutines — and the wall-clock for each run is recorded, along
//     with whether the rendered tables were byte-identical (they must be:
//     every cell is a pure function of its options and index).
//
//  2. Serving: the sharded rmserve front-end (N devices, each with its own
//     virtual clock, behind the coalescing pool) is hammered by concurrent
//     clients and the host-side request throughput is recorded next to the
//     aggregate simulated QPS, both as measured by a saturated replay over
//     the same shards and as the analytic steady-state oracle.
//
// Every number here is a host measurement, so the wall clock is the right
// clock; each use is annotated for the wallclock analyzer. Simulated
// figures (tables, QPS) remain exclusively virtual-time products.
//
// The measurement's shape is fixed; three flags remain: -o (output path),
// -table-mb (the sweep's table budget) and -requests (the serving request
// count), the two a quick smoke run shrinks. A perf case that fails (its
// setup or op called tb.Fatal) makes rmperf exit non-zero.
//
// Usage:
//
//	rmperf                                   # writes BENCH_simcore.json
//	rmperf -o - -table-mb 64 -requests 400   # quick run, JSON to stdout
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"rmssd"
	"rmssd/internal/bench"
	"rmssd/internal/obs"
	"rmssd/internal/perfcase"
	"rmssd/internal/serving"
)

// SweepReport records the fixed-sweep wall-clock comparison.
type SweepReport struct {
	Experiments       []string `json:"experiments"`
	TableMB           int64    `json:"table_mb"`
	Parallel          int      `json:"parallel"`
	SequentialSeconds float64  `json:"sequential_seconds"`
	ParallelSeconds   float64  `json:"parallel_seconds"`
	Speedup           float64  `json:"speedup"`
	ByteIdentical     bool     `json:"byte_identical"`
	// Status is "ok", or "skipped_overhead_bound" when the host exposes a
	// single CPU: worker goroutines can only add scheduling overhead there,
	// so the parallel leg is not run and its fields stay zero.
	Status string `json:"status"`
}

// ServeReport records the sharded-serving throughput measurement.
type ServeReport struct {
	Model            string  `json:"model"`
	TableMB          int64   `json:"table_mb"`
	Shards           int     `json:"shards"`
	Clients          int     `json:"clients"`
	Requests         int64   `json:"requests"`
	Inferences       int64   `json:"inferences"`
	MeanBatch        float64 `json:"mean_coalesced_batch"`
	WallSeconds      float64 `json:"wall_seconds"`
	HostRequestsPerS float64 `json:"host_requests_per_second"`
	HostInferPerS    float64 `json:"host_inferences_per_second"`
	// ReplayAggQPS is the shards' simulated throughput measured by a
	// saturated serving.Replay; SimulatedAggQPS and SimulatedShardQPS are
	// the analytic steady-state oracle it is checked against.
	ReplayAggQPS      float64 `json:"replay_aggregate_qps"`
	SimulatedAggQPS   float64 `json:"simulated_aggregate_qps"`
	SimulatedShardQPS float64 `json:"simulated_per_shard_qps"`
}

// Report is the full BENCH_simcore.json payload.
type Report struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Note       string         `json:"note,omitempty"`
	Sweep      SweepReport    `json:"sweep"`
	Serve      ServeReport    `json:"rmserve"`
	Micro      map[string]any `json:"micro"`
	Locality   LocalityReport `json:"locality"`
	Obs        ObsReport      `json:"obs"`
}

// The sweep's experiments, and the serving measurement's table budget,
// client count and request size (the observability replay shares the
// request size). The sweep runs on GOMAXPROCS workers, and the serving
// pool serves RMC1 on GOMAXPROCS shards.
var sweepExps = []string{"fig10", "fig12", "ablation"}

const (
	serveTableMB = 64 // MiB
	serveClients = 16
	reqBatch     = 4 // inferences per request
)

func main() {
	var (
		out      = flag.String("o", "BENCH_simcore.json", "output path ('-' = stdout)")
		tableMB  = flag.Int64("table-mb", 256, "sweep embedding table budget in MiB")
		requests = flag.Int("requests", 2000, "total serving requests")
	)
	flag.Parse()
	// testing.Init registers the flags testing.Benchmark reads; without
	// them a perf case that reports a failure panics inside package testing.
	// Registering them after Parse keeps them off rmperf's command line.
	testing.Init()

	rep := Report{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	if rep.NumCPU < 4 {
		rep.Note = fmt.Sprintf("host exposes %d CPU(s); wall-clock speedup requires real cores — rerun on a >=4-core host for the parallel-vs-sequential comparison to be meaningful", rep.NumCPU)
	}

	rep.Sweep = runSweep(sweepExps, *tableMB)
	rep.Serve = runServe(*requests)
	micro, err := runMicro(perfcase.Cases)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep.Micro = micro
	rep.Locality = runLocality()
	rep.Obs = runObs()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		if _, err := os.Stdout.Write(data); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "rmperf: wrote %s (sweep %.2fs -> %.2fs, %.2fx; serving %.0f req/s on %d shards)\n",
		*out, rep.Sweep.SequentialSeconds, rep.Sweep.ParallelSeconds, rep.Sweep.Speedup,
		rep.Serve.HostRequestsPerS, rep.Serve.Shards)
}

// renderSweep evaluates the named experiments and returns the wall-clock
// spent plus every rendered table, for the byte-identity check.
func renderSweep(names []string, opts bench.Options) (float64, []string, error) {
	var tables []string
	start := time.Now() //lint:allow wallclock host-side perf harness measures real elapsed time
	for _, name := range names {
		e, err := bench.Find(name)
		if err != nil {
			return 0, nil, err
		}
		for _, t := range e.Run(opts) {
			tables = append(tables, t.String())
		}
	}
	//lint:allow wallclock host-side perf harness measures real elapsed time
	return time.Since(start).Seconds(), tables, nil
}

// runSweep times the fixed sweep sequentially and on GOMAXPROCS workers
// and checks the outputs are byte-identical.
func runSweep(names []string, tableMB int64) SweepReport {
	parallel := runtime.GOMAXPROCS(0)
	seqOpts := bench.Options{TableBytes: tableMB << 20, Parallel: 1}
	parOpts := bench.Options{TableBytes: tableMB << 20, Parallel: parallel}

	seqSec, seqTabs, err := renderSweep(names, seqOpts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if runtime.NumCPU() == 1 {
		// One CPU: a worker pool can only lose to the sequential loop, so
		// the comparison would measure goroutine overhead, not speedup.
		return SweepReport{
			Experiments:       names,
			TableMB:           tableMB,
			Parallel:          parallel,
			SequentialSeconds: seqSec,
			Status:            "skipped_overhead_bound",
		}
	}
	parSec, parTabs, err := renderSweep(names, parOpts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	identical := len(seqTabs) == len(parTabs)
	if identical {
		for i := range seqTabs {
			if seqTabs[i] != parTabs[i] {
				identical = false
				break
			}
		}
	}
	rep := SweepReport{
		Experiments:       names,
		TableMB:           tableMB,
		Parallel:          parallel,
		SequentialSeconds: seqSec,
		ParallelSeconds:   parSec,
		ByteIdentical:     identical,
		Status:            "ok",
	}
	if parSec > 0 {
		rep.Speedup = seqSec / parSec
	}
	return rep
}

// newShards builds n independent device shards of cfg over one shared
// model, each drawing count-only inputs from its own trace stream, and
// returns them with their first device. A non-nil sink(i) receives shard
// i's device spans.
func newShards(cfg rmssd.ModelConfig, n int, sink func(i int) obs.SpanSink) ([]serving.Batcher, *rmssd.Device) {
	m, err := rmssd.BuildModel(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var first *rmssd.Device
	backends := make([]serving.Batcher, 0, n)
	for i := 0; i < n; i++ {
		dev, err := rmssd.NewDeviceFromModel(m, rmssd.DeviceOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if first == nil {
			first = dev
		}
		if sink != nil {
			dev.SetSpanSink(sink(i))
		}
		gen := rmssd.MustNewTrace(rmssd.TraceConfig{
			Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups,
			Seed: serving.ShardSeed(1, i, 1),
		})
		backends = append(backends, serving.NewDeviceShard(dev, gen, cfg.DenseDim))
	}
	return backends, first
}

// runServe builds the sharded pool and measures host-side throughput under
// concurrent clients.
func runServe(requests int) ServeReport {
	cfg := rmssd.RMC1()
	cfg.RowsPerTable = cfg.RowsForBudget(serveTableMB << 20)
	nshards := runtime.GOMAXPROCS(0)
	backends, first := newShards(cfg, nshards, nil)
	pool := serving.NewPool(backends, first.NBatch(), 256)

	start := time.Now() //lint:allow wallclock host-side perf harness measures real elapsed time
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := c; r < requests; r += serveClients {
				if _, err := pool.Infer(reqBatch); err != nil {
					panic(err) // unreachable: reqBatch > 0
				}
			}
		}(c)
	}
	wg.Wait()
	//lint:allow wallclock host-side perf harness measures real elapsed time
	wall := time.Since(start).Seconds()
	pool.Close()

	// The pool is closed, so the shards are free for a saturated replay of
	// the same request stream on the simulated clock.
	sat, err := serving.Replay(backends, serving.ReplayConfig{
		Rate: 1e12, MaxBatch: first.NBatch(), Requests: requests, Seed: 1,
	}, serving.CountSource(reqBatch))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	st := pool.Stats()
	perShardQPS := first.SteadyStateQPS(first.NBatch())
	rep := ServeReport{
		Model:             cfg.Name,
		TableMB:           serveTableMB,
		Shards:            nshards,
		Clients:           serveClients,
		Requests:          st.Requests,
		Inferences:        st.Inferences,
		MeanBatch:         st.MeanBatch,
		WallSeconds:       wall,
		ReplayAggQPS:      sat.ThroughputQPS,
		SimulatedAggQPS:   perShardQPS * float64(nshards),
		SimulatedShardQPS: perShardQPS,
	}
	if wall > 0 {
		rep.HostRequestsPerS = float64(st.Requests) / wall
		rep.HostInferPerS = float64(st.Inferences) / wall
	}
	return rep
}
