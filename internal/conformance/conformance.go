// Package conformance pins the simulator's observable outputs to golden
// checksums. Every case renders a deterministic artifact — a bench table,
// a trace-replay report, a batch of device predictions with their simulated
// timing — and the suite compares an FNV-1a checksum of the rendered text
// against testdata/golden.json.
//
// The golden file also records params.TimingFingerprint(), a hash of every
// calibration constant feeding the simulated timelines. A failing checksum
// therefore has two distinguishable causes:
//
//   - the fingerprint still matches: the simulator's behaviour changed
//     under the same calibration — a regression (or an intended behaviour
//     change that must regenerate the goldens consciously);
//   - the fingerprint differs: a calibration constant (Tpage, channel
//     count, kernel II, ...) was retuned, and every downstream number is
//     expected to move — regenerate with -update and review the diff.
//
// Regenerate with:
//
//	go test ./internal/conformance/ -run TestGolden -update
package conformance

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"rmssd/internal/array"
	"rmssd/internal/bench"
	"rmssd/internal/core"
	"rmssd/internal/flash"
	"rmssd/internal/model"
	"rmssd/internal/obs"
	"rmssd/internal/serving"
	"rmssd/internal/tensor"
	"rmssd/internal/trace"
)

// Checksum returns the FNV-1a hash of the rendered artifact.
func Checksum(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Case is one pinned artifact.
type Case struct {
	// Name keys the golden entry (stable across runs and reorderings).
	Name string
	// Render produces the artifact deterministically.
	Render func() (string, error)
}

// tableBudget keeps conformance devices small and fast while still
// exercising multi-page table layouts.
const tableBudget = 16 << 20

// Cases returns the golden suite in name order.
func Cases() []Case {
	cases := []Case{
		{Name: "device/infer", Render: renderDeviceInfer},
		{Name: "replay/single", Render: renderSingleReplay},
		{Name: "replay/mixed", Render: renderMixedReplay},
		{Name: "replay/evcache", Render: renderEVCacheReplay},
		{Name: "replay/faults", Render: renderFaultReplay},
		{Name: "replay/trace", Render: renderTraceReplay},
		{Name: "replay/array", Render: renderArrayReplay},
	}
	// Static tables: pure functions of the calibration constants (Table II
	// settings, model zoo, kernel search results, resource totals).
	for _, name := range []string{"table2", "table3", "table5", "table6"} {
		cases = append(cases, benchCase(name))
	}
	// One timing experiment end to end, at reduced scale: the SLS operator
	// comparison exercises flash reads, pooling and the host cost model.
	cases = append(cases, benchCase("fig10"))
	sort.Slice(cases, func(i, j int) bool { return cases[i].Name < cases[j].Name })
	return cases
}

// benchCase renders one bench experiment at conformance scale.
func benchCase(name string) Case {
	return Case{
		Name: "bench/" + name,
		Render: func() (string, error) {
			e, err := bench.Find(name)
			if err != nil {
				return "", err
			}
			var sb strings.Builder
			for _, tab := range e.Run(bench.Options{
				Iterations: 2, WarmupIterations: 1,
				TableBytes: tableBudget, Seed: 1, Parallel: 1,
			}) {
				sb.WriteString(tab.String())
				sb.WriteByte('\n')
			}
			return sb.String(), nil
		},
	}
}

// confModels are the architectures the device-level cases pin. RMC1 is
// embedding-dominated, RMC3 MLP-dominated, WnD single-lookup: together they
// route through every engine path.
func confModels() []model.Config {
	out := []model.Config{}
	for _, cfg := range []model.Config{model.RMC1(), model.RMC3(), model.WnD()} {
		cfg.RowsPerTable = cfg.RowsForBudget(tableBudget)
		out = append(out, cfg)
	}
	return out
}

// renderDeviceInfer runs a fixed batch through each model's device and
// renders the prediction bit patterns with the full simulated timing
// breakdown. Any change to the flash timing (Tpage, vector-read cycles),
// the MLP engine schedule or the arithmetic itself moves this artifact.
func renderDeviceInfer() (string, error) {
	var sb strings.Builder
	for _, cfg := range confModels() {
		dev, err := core.New(cfg, core.Options{})
		if err != nil {
			return "", err
		}
		gen, err := trace.NewGenerator(trace.Config{
			Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 11,
		})
		if err != nil {
			return "", err
		}
		const batch = 3
		denses := make([]tensor.Vector, batch)
		for i := range denses {
			denses[i] = gen.DenseInput(i, cfg.DenseDim)
		}
		now := time.Duration(0)
		fmt.Fprintf(&sb, "model %s tables=%d lookups=%d rows=%d\n",
			cfg.Name, cfg.Tables, cfg.Lookups, cfg.RowsPerTable)
		for it := 0; it < 2; it++ {
			outs, done, bd, err := dev.InferBatch(now, denses, gen.Batch(batch))
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "  batch %d: done=%v send=%v emb=%v bot=%v top=%v read=%v preds=",
				it, done, bd.Send, bd.Emb, bd.Bot, bd.Top, bd.Read)
			for _, p := range outs {
				fmt.Fprintf(&sb, "%08x", math.Float32bits(p))
			}
			sb.WriteByte('\n')
			now = done
		}
	}
	return sb.String(), nil
}

// confRMC1 is the RMC1 configuration every replay case but the mixed one
// hosts.
func confRMC1() model.Config {
	cfg := model.RMC1()
	cfg.RowsPerTable = cfg.RowsForBudget(tableBudget)
	return cfg
}

// newDevice builds shard i's device over the hosted model m, which every
// shard shares.
type newDevice func(m *model.Model, i int) (serving.Device, error)

// plainDevice builds a default sequential device for every shard.
func plainDevice(m *model.Model, _ int) (serving.Device, error) {
	return core.NewFromModel(m, core.Options{})
}

// deviceShards builds cfg's model once and nshards DeviceShards over the
// devices newDev returns from it. Shard i draws count-only inputs from a
// generator of shape tc seeded serving.ShardSeed(tc.Seed, i, 1).
func deviceShards(cfg model.Config, tc trace.Config, nshards int, newDev newDevice) ([]serving.Batcher, error) {
	m, err := model.Build(cfg)
	if err != nil {
		return nil, err
	}
	backends := make([]serving.Batcher, 0, nshards)
	base := tc.Seed
	for i := 0; i < nshards; i++ {
		dev, err := newDev(m, i)
		if err != nil {
			return nil, err
		}
		tc.Seed = serving.ShardSeed(base, i, 1)
		gen, err := trace.NewGenerator(tc)
		if err != nil {
			return nil, err
		}
		backends = append(backends, serving.NewDeviceShard(dev, gen, cfg.DenseDim))
	}
	return backends, nil
}

// traceConfig is cfg's trace shape at seed, with locality preset k when
// k > 0.
func traceConfig(cfg model.Config, seed uint64, k float64) (trace.Config, error) {
	tc := trace.Config{Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: seed}
	if k > 0 {
		return tc.WithLocality(k)
	}
	return tc, nil
}

// replayRMC1 replays the pinned synthetic stream (40 requests of two
// inferences at 100k req/s, seed 5) through two confRMC1 shards over the
// devices newDev returns: the rmserve -trace synthetic path in library
// form. Shard generators are seeded from shardSeed; k > 0 gives the shards
// and the stream locality preset k.
func replayRMC1(shardSeed uint64, k float64, tracer *obs.Tracer, newDev newDevice) (serving.ReplayResult, error) {
	cfg := confRMC1()
	tc, err := traceConfig(cfg, shardSeed, k)
	if err != nil {
		return serving.ReplayResult{}, err
	}
	backends, err := deviceShards(cfg, tc, 2, newDev)
	if err != nil {
		return serving.ReplayResult{}, err
	}
	tc.Seed = 5
	gen, err := trace.NewGenerator(tc)
	if err != nil {
		return serving.ReplayResult{}, err
	}
	src, err := serving.NewGeneratorSource(gen, 2, cfg.DenseDim)
	if err != nil {
		return serving.ReplayResult{}, err
	}
	return serving.Replay(backends, serving.ReplayConfig{
		Rate: 100000, MaxBatch: 8, Requests: 40, Seed: 5, Tracer: tracer,
	}, src)
}

// formatReplay renders a replay result completely — counts, coalescing,
// the full latency profile and the prediction checksum — so the golden
// covers both functional outputs and the simulated timeline.
func formatReplay(res serving.ReplayResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "requests=%d inferences=%d batches=%d mean=%.4f coalesced=%.4f\n",
		res.Requests, res.Inferences, res.Batches, res.MeanBatch, res.Coalesced)
	fmt.Fprintf(&sb, "p50=%v p95=%v p99=%v max=%v elapsed=%v qps=%.4f\n",
		res.P50, res.P95, res.P99, res.Max, res.Elapsed, res.ThroughputQPS)
	fmt.Fprintf(&sb, "predcheck=%016x pershard=%v\n", res.PredCheck, res.PerShard)
	return sb.String()
}

// renderSingleReplay replays a synthetic trace through two RMC1 device
// shards: the rmserve -trace synthetic path in library form.
func renderSingleReplay() (string, error) {
	res, err := replayRMC1(1, 0, nil, plainDevice)
	if err != nil {
		return "", err
	}
	return "replay RMC1 shards=2\n" + formatReplay(res), nil
}

// renderEVCacheReplay replays a hot-locality synthetic trace through two
// RMC1 shards with the device EV cache and intra-batch dedup enabled: the
// rmserve -trace -ev-cache-mb -dedup path in library form. Beyond the
// standard replay profile it pins the cache hit/miss/eviction and dedup
// counters, so both the timing effect of the cache and its bookkeeping are
// under golden control.
func renderEVCacheReplay() (string, error) {
	var devs []*core.RMSSD
	res, err := replayRMC1(5, 2, nil, func(m *model.Model, _ int) (serving.Device, error) {
		dev, err := core.NewFromModel(m, core.Options{
			EVCacheBytes: 4 << 20,
			DedupLookups: true,
		})
		devs = append(devs, dev)
		return dev, err
	})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("replay RMC1 shards=2 evcache=4MiB dedup=on locality K=2\n")
	sb.WriteString(formatReplay(res))
	for i, dev := range devs {
		c := dev.Counters()
		fmt.Fprintf(&sb, "shard %d: lookups=%d dedup=%d hits=%d misses=%d evictions=%d\n",
			i, c.Lookups, c.DedupHits, c.CacheHits, c.CacheMisses, c.CacheEvictions)
	}
	return sb.String(), nil
}

// renderFaultReplay replays the single-model trace on devices with the
// deterministic fault plan enabled: the rmserve -fault-rate path in library
// form. Beyond the replay profile it pins the failed-request count and each
// shard's fault counters, so the seeded fault sequence itself — which reads
// retried, which went uncorrectable, and what the retries cost the
// timeline — is under golden control.
func renderFaultReplay() (string, error) {
	var devs []*core.RMSSD
	res, err := replayRMC1(5, 0, nil, func(m *model.Model, i int) (serving.Device, error) {
		dev, err := core.NewFromModel(m, core.Options{
			FaultPlan: flash.FaultPlan{Rate: 0.35, Seed: serving.ShardSeed(7, i, 1)},
		})
		devs = append(devs, dev)
		return dev, err
	})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("replay RMC1 shards=2 faultrate=0.35\n")
	sb.WriteString(formatReplay(res))
	fmt.Fprintf(&sb, "failed=%d\n", res.Failed)
	for i, dev := range devs {
		c := dev.Counters()
		fmt.Fprintf(&sb, "shard %d: readfaults=%d eccretries=%d uncorrectable=%d\n",
			i, c.ReadFaults, c.ECCRetries, c.Uncorrectable)
	}
	return sb.String(), nil
}

// renderArrayReplay replays the single-model trace on shards backed by
// two-device hash-partitioned arrays: the rmserve -array-devices -partition
// path in library form. Beyond the replay profile it pins each shard's
// scatter/gather counters, so the partition routing, the partial-sum
// traffic and the modeled inter-device transfer cost (ArrayTransferSetup /
// ArrayTransferBandwidth — both in the timing fingerprint) are under golden
// control. The array merges partials in member-index order, so the
// prediction checksum here is as pinnable as any single-device case.
func renderArrayReplay() (string, error) {
	var arrs []*array.Array
	res, err := replayRMC1(5, 0, nil, func(m *model.Model, _ int) (serving.Device, error) {
		arr, err := array.NewFromModel(m, core.Options{
			ArrayDevices: 2,
			Partition:    string(array.StrategyHash),
		})
		arrs = append(arrs, arr)
		return arr, err
	})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("replay RMC1 shards=2 array=2x(hash)\n")
	sb.WriteString(formatReplay(res))
	for i, arr := range arrs {
		st := arr.Stats()
		fmt.Fprintf(&sb, "shard %d: scattered=%v partials=%d transfers=%d bytes=%d\n",
			i, st.Scattered, st.Partials, st.Transfers, st.TransferBytes)
	}
	return sb.String(), nil
}

// renderTraceReplay replays the single-model trace with the observability
// layer attached and renders the trace JSONL plus the Prometheus text of
// the metrics registry it fed. This makes the trace schema and the metrics
// exposition format golden artifacts: a field rename, a reordered series
// or a drifting stage span moves this case and must bump
// obs.TraceSchemaVersion (or regenerate consciously). The replay numbers
// themselves are pinned separately by replay/single — tracing must not
// move them (the differential suite enforces that directly).
func renderTraceReplay() (string, error) {
	tracer := obs.NewTracer(obs.NewRegistry())
	if _, err := replayRMC1(5, 0, tracer, func(m *model.Model, i int) (serving.Device, error) {
		dev, err := core.NewFromModel(m, core.Options{})
		if err != nil {
			return nil, err
		}
		dev.SetSpanSink(tracer.DeviceSink("default", i))
		return dev, nil
	}); err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("trace replay RMC1 shards=2\n")
	if err := tracer.WriteJSONL(&sb); err != nil {
		return "", err
	}
	sb.WriteString("-- metrics --\n")
	sb.WriteString(tracer.Registry().RenderPrometheus())
	return sb.String(), nil
}

// renderMixedReplay replays a weighted two-model mixed trace: the rmserve
// -models -trace path in library form. Each model's section is pinned, so
// the golden also guards the per-model isolation guarantee.
func renderMixedReplay() (string, error) {
	type hosted struct {
		name   string
		cfg    model.Config
		weight int
	}
	rmc1 := confRMC1()
	wnd := model.WnD()
	wnd.RowsPerTable = wnd.RowsForBudget(tableBudget)
	hs := []hosted{{"ctr", rmc1, 2}, {"wide", wnd, 1}}

	const seed = 9
	parts := make([]serving.TaggedPart, 0, len(hs))
	models := make([]serving.ModelSpec, 0, len(hs))
	for _, h := range hs {
		tc, err := traceConfig(h.cfg, seed, 0)
		if err != nil {
			return "", err
		}
		backends, err := deviceShards(h.cfg, tc, 1, plainDevice)
		if err != nil {
			return "", err
		}
		tc.Seed = serving.ModelReplaySeed(seed, h.name)
		gen, err := trace.NewGenerator(tc)
		if err != nil {
			return "", err
		}
		src, err := serving.NewGeneratorSource(gen, 1, h.cfg.DenseDim)
		if err != nil {
			return "", err
		}
		parts = append(parts, serving.TaggedPart{Model: h.name, Source: src, Weight: h.weight})
		models = append(models, serving.ModelSpec{Name: h.name, Backends: backends, MaxBatch: 4})
	}
	src, err := serving.NewInterleavedSource(parts)
	if err != nil {
		return "", err
	}
	res, err := serving.MultiReplay(models, serving.MultiReplayConfig{
		Rate: 80000, Requests: 45, Seed: seed,
	}, src)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "mixed replay models=%v requests=%d inferences=%d batches=%d\n",
		res.Models, res.Requests, res.Inferences, res.Batches)
	for _, name := range res.Models {
		fmt.Fprintf(&sb, "-- %s\n%s", name, formatReplay(res.PerModel[name]))
	}
	return sb.String(), nil
}
