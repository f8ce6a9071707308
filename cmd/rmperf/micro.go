package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"rmssd"
	"rmssd/internal/engine"
	"rmssd/internal/evcache"
	"rmssd/internal/params"
	"rmssd/internal/serving"
	"rmssd/internal/tensor"
)

// Micro-benchmarks: per-operation allocation and latency numbers for the
// serving and lookup hot paths, measured in-process via testing.Benchmark so
// rmperf needs no `go test` invocation. Each stat is recorded next to a
// frozen baseline: the same benchmark's numbers at the commit before the
// allocation-lean rework, so BENCH_simcore.json shows the delta without
// having to rebuild history.

// Frozen per-op baselines (see note above). The EV cache hit path is new in
// the same change, so it has no pre-rework baseline; the miss+fill baseline
// is the list+map LRU that preceded the slab cache (one list element and
// one entry per reservation). The shard-build baseline is rmssd.NewDevice
// before shards shared their hosted model, when every shard built its own
// weights. The resident-bytes baseline is the full churned 8 MiB cache of
// 128-byte vectors measured the same way while a Go map indexed the slab.
// The MLP-forward baseline is the same benchmark with the one-row MatVec
// that preceded the four-row kernel (median of five runs on the 2-vCPU
// host that produced BENCH_simcore.json; the kernel change moved no
// allocation).
const (
	baseSubmitAllocs     = 5
	baseSubmitBytes      = 288
	baseLookupAllocs     = 1369
	baseLookupBytes      = 165696
	baseMissFillAllocs   = 2
	baseMissFillBytes    = 96
	baseShardBuildAllocs = 1039
	baseShardBuildBytes  = 13603256
	baseResidentBytes    = 213.4
	baseMLPForwardNs     = 3469789
	baseMLPForwardAllocs = 10
	baseMLPForwardBytes  = 15748
)

// MicroStat is one benchmark's per-op numbers next to its frozen baseline.
type MicroStat struct {
	NsPerOp        float64 `json:"ns_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	BaselineNs     float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocs int64   `json:"baseline_allocs_per_op,omitempty"`
	BaselineBytes  int64   `json:"baseline_bytes_per_op,omitempty"`
}

// MicroReport aggregates the micro-benchmarks plus the GC pause accumulated
// while the hot-path ones ran, shard_build, mlp_forward and the footprint
// excluded (host wall-clock figures; simulated time is not involved), and
// the heap a full EV cache retains per resident entry.
type MicroReport struct {
	PoolSubmit        MicroStat `json:"pool_submit"`
	LookupPoolHot     MicroStat `json:"lookup_pool_hot"`
	EVCacheHit        MicroStat `json:"evcache_hit"`
	EVCacheMiss       MicroStat `json:"evcache_miss_fill"`
	ShardBuild        MicroStat `json:"shard_build"`
	MLPForward        MicroStat `json:"mlp_forward"`
	GCPauseMS         float64   `json:"gc_pause_total_ms"`
	ResidentBytes     float64   `json:"evcache_resident_bytes_per_entry"`
	BaseResidentBytes float64   `json:"baseline_evcache_resident_bytes_per_entry"`
}

func stat(r testing.BenchmarkResult, baseAllocs, baseBytes int64) MicroStat {
	return MicroStat{
		NsPerOp:        float64(r.NsPerOp()),
		AllocsPerOp:    r.AllocsPerOp(),
		BytesPerOp:     r.AllocedBytesPerOp(),
		BaselineAllocs: baseAllocs,
		BaselineBytes:  baseBytes,
	}
}

// nullBatcher isolates Pool.Submit's own cost: serving a batch is one slice
// allocation and no simulation.
type nullBatcher struct{}

func (nullBatcher) ServeBatch(reqs []serving.Request) serving.BatchResult {
	return serving.BatchResult{Preds: make([]float32, serving.CountOf(reqs))}
}

// runMicro measures the hot paths. The lookup benchmark mirrors
// internal/engine's BenchmarkLookupPoolHotTrace (same model shape, geometry,
// trace seed and K=2 locality, one inference per op through PoolBatch over a
// one-inference sub-slice) so its numbers are comparable with `make
// bench-micro` output and with the frozen baselines.
func runMicro() MicroReport {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	pool := serving.NewPool([]serving.Batcher{nullBatcher{}}, 8, 64)
	submit := testing.Benchmark(func(b *testing.B) {
		ctx := context.Background()
		req := serving.Request{N: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pool.Submit(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	pool.Close()

	cfg := rmssd.RMC1()
	cfg.RowsPerTable = 2048
	dev, err := rmssd.NewDevice(cfg, rmssd.DeviceOptions{
		Geometry: rmssd.Geometry{
			Channels: 4, DiesPerChannel: 4, PlanesPerDie: 2,
			BlocksPerPlane: 64, PagesPerBlock: 16, PageSize: 4096,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tc, err := rmssd.TraceConfig{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 7,
	}.WithLocality(2)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	gen := rmssd.MustNewTrace(tc)
	batches := gen.Batch(64)
	lookup := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % len(batches)
			if _, _, err := dev.Lookup().PoolBatch(0, batches[j:j+1], true); err != nil {
				b.Fatal(err)
			}
		}
	})

	evSize := cfg.EVSize()
	cache := evcache.New(int64(evSize)*1024, evSize)
	cache.Fill(cache.Reserve(0, 1))
	hit := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h, ok := cache.Get(0, 1)
			if !ok || !cache.Filled(h) {
				b.Fatal("vector fell out of a one-entry working set")
			}
			cache.Hit(0)
		}
	})

	// Steady-state miss on a full cache: the Get misses, the Reserve evicts
	// the LRU entry, the Fill marks the new entry filled. Mirrors
	// internal/evcache's BenchmarkEVCacheMissFill.
	const missCap = 1024
	miss := testing.Benchmark(func(b *testing.B) {
		full := evcache.New(int64(evSize)*missCap, evSize)
		for r := int64(0); r < missCap; r++ {
			full.Fill(full.Reserve(0, r))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			row := int64(missCap + i)
			if _, ok := full.Get(0, row); ok {
				b.Fatal("fresh row hit")
			}
			full.Fill(full.Reserve(0, row))
		}
	})

	runtime.ReadMemStats(&after)

	// One more shard of a hosted model: the RMC3 64 MiB device of the
	// MLP-dominated serving workload, built over weights that already exist.
	// It allocates by design, so it runs after the GC pause snapshot.
	shardCfg := rmssd.RMC3()
	shardCfg.RowsPerTable = shardCfg.RowsForBudget(64 << 20)
	hosted, err := rmssd.BuildModel(shardCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	shardBuild := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rmssd.NewDeviceFromModel(hosted, rmssd.DeviceOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// One RMC3 inference through the searched MLP engine's remapped
	// towers over the same hosted weights: the host MatVec work that
	// dominates the rmc3-mlp serving workload.
	mlp, err := engine.NewMLPEngine(hosted, engine.DesignSearched, params.XCVU9P)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dense := make(tensor.Vector, shardCfg.DenseDim)
	tensor.FillVector(dense, 1, 1)
	pooled := make([]tensor.Vector, shardCfg.Tables)
	for t := range pooled {
		pooled[t] = make(tensor.Vector, shardCfg.EVDim)
		tensor.FillVector(pooled[t], uint64(2+t), 1)
	}
	var sink float32
	forward := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += mlp.Forward(dense, pooled)
		}
	})
	runtime.KeepAlive(sink)
	mlpForward := stat(forward, baseMLPForwardAllocs, baseMLPForwardBytes)
	mlpForward.BaselineNs = baseMLPForwardNs

	return MicroReport{
		PoolSubmit:        stat(submit, baseSubmitAllocs, baseSubmitBytes),
		LookupPoolHot:     stat(lookup, baseLookupAllocs, baseLookupBytes),
		EVCacheHit:        stat(hit, 0, 0),
		EVCacheMiss:       stat(miss, baseMissFillAllocs, baseMissFillBytes),
		ShardBuild:        stat(shardBuild, baseShardBuildAllocs, baseShardBuildBytes),
		MLPForward:        mlpForward,
		GCPauseMS:         float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		ResidentBytes:     residentBytesPerEntry(8<<20, 128),
		BaseResidentBytes: baseResidentBytes,
	}
}

// residentBytesPerEntry fills a New(budget, evSize) EV cache, churns three
// times its capacity of distinct keys through it, and returns the heap it
// retains per resident entry after a GC: slot and index together (the
// cache keeps no vector bytes). Mirrors internal/evcache's
// TestResidentFootprint, which bounds the same figure.
func residentBytesPerEntry(budget int64, evSize int) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := evcache.New(budget, evSize)
	for r := range 3 * c.CapEntries() {
		c.Fill(c.Reserve(0, int64(r)))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(c.Len())
}
