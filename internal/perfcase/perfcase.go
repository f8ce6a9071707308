// Package perfcase is the one list of host micro-benchmark cases. Each
// case is timed by `make bench-micro` (BenchmarkCases, one sub-benchmark
// per case), gated there against its allocation ceilings (TestCeilings)
// and reported by rmperf under "micro" in BENCH_simcore.json, so the
// number committed for an op comes from the definition the gate runs.
package perfcase

import (
	"context"
	"testing"
	"time"

	"rmssd/internal/core"
	"rmssd/internal/embedding"
	"rmssd/internal/engine"
	"rmssd/internal/evcache"
	"rmssd/internal/flash"
	"rmssd/internal/hostio"
	"rmssd/internal/model"
	"rmssd/internal/params"
	"rmssd/internal/serving"
	"rmssd/internal/ssd"
	"rmssd/internal/tensor"
	"rmssd/internal/trace"
)

// Case is one timed host operation.
type Case struct {
	// Name is the sub-benchmark name and the case's key under "micro" in
	// BENCH_simcore.json.
	Name string
	// Setup builds the case's state, untimed, and returns the op timed
	// once per iteration. Setup and the op report failures through tb.
	Setup func(tb testing.TB) (op func())
	// MaxAllocs is the allocs/op ceiling, frozen at the value measured
	// when the gate was added; lower it when a change removes
	// allocations.
	MaxAllocs int64
	// MaxBytes, when positive, is the B/op ceiling: about 1.5x the value
	// measured when the gate was added.
	MaxBytes int64
	// Baseline, when nonzero, is the op's frozen per-op cost before the
	// rework that cut it, reported beside today's numbers.
	Baseline Baseline
}

// Baseline is a frozen per-op measurement; a zero field has none.
type Baseline struct {
	NsPerOp     float64
	AllocsPerOp int64
	BytesPerOp  int64
}

// Bench runs c as a Go benchmark: Setup, then b.N timed ops.
func (c Case) Bench(b *testing.B) {
	op := c.Setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		op()
	}
}

// Cases is every host micro-benchmark case.
//
// The frozen baselines: pool_submit, lookup_pool_hot and
// evcache_miss_fill at the commit before the allocation-lean rework (the
// miss+fill one is the list+map LRU that preceded the slab cache);
// shard_build is a device build before shards shared their hosted model,
// when every shard built its own weights; mlp_forward is the one-row
// MatVec that preceded the four-row kernel and model_build the scalar
// hash loop that preceded the vector hash kernel (medians of five runs on
// the 2-vCPU host that produced BENCH_simcore.json).
var Cases = []Case{
	{
		// One count-only request through Submit, coalescing and the reply
		// fan-out, over a near-free backend.
		Name: "pool_submit", Setup: poolSubmit, MaxAllocs: 2,
		Baseline: Baseline{AllocsPerOp: 5, BytesPerOp: 288},
	},
	{
		// One explicit 8-request batch through a shard on a small RMC1
		// device: batch assembly, per-request validation and the device
		// call. Guards the shard's scratch reuse.
		Name: "device_shard_serve", Setup: deviceShardServe, MaxAllocs: 78,
	},
	{
		// One inference's pooled lookups under a K=2 locality trace
		// (Fig. 14's least-local preset: a 30 % hot mass over a Zipf hot
		// set).
		Name: "lookup_pool_hot", Setup: lookupPoolHot, MaxAllocs: 3,
		Baseline: Baseline{AllocsPerOp: 1369, BytesPerOp: 165696},
	},
	{
		// One materialised batch of 8 inferences whose lookups almost all
		// hit a warm EV cache holding every table (K=0, an 80 % hot mass).
		Name: "lookup_pool_cached_hot", Setup: lookupPoolCachedHot, MaxAllocs: 3,
	},
	{
		// The EV cache hit path: one Get plus the port acquire.
		Name: "evcache_hit", Setup: evcacheHit, MaxAllocs: 0,
	},
	{
		// A steady-state miss on a full EV cache: the Get misses and the
		// Reserve evicts the LRU entry to admit the new one. The name
		// keeps the case's BENCH_simcore.json series.
		Name: "evcache_miss_fill", Setup: evcacheMissFill, MaxAllocs: 0,
		Baseline: Baseline{AllocsPerOp: 2, BytesPerOp: 96},
	},
	{
		// The SSD-S/SSD-M page cache on a full cache: one miss that
		// faults a page in and evicts the LRU one, and one hit.
		Name: "page_cache_touch", Setup: pageCacheTouch, MaxAllocs: 0,
	},
	{
		// One more shard of a hosted model: the RMC3 64 MiB device of the
		// MLP-dominated serving workload over weights that already exist.
		// One per-device copy of RMC3's top L0 would add 720 KB.
		Name: "shard_build", Setup: shardBuild, MaxAllocs: 998, MaxBytes: 89000,
		Baseline: Baseline{AllocsPerOp: 1039, BytesPerOp: 13603256},
	},
	{
		// One heap build of the same RMC3 model: the model, its layers,
		// their matrix headers and one weight slice, whatever the depth.
		Name: "model_build", Setup: modelBuild, MaxAllocs: 4,
		Baseline: Baseline{NsPerOp: 14352034, AllocsPerOp: 4, BytesPerOp: 12829376},
	},
	{
		// One RMC3 inference through the searched MLP engine's remapped
		// towers: the host MatVec work of the rmc3-mlp serving workload.
		Name: "mlp_forward", Setup: mlpForward, MaxAllocs: 10,
		Baseline: Baseline{NsPerOp: 3469789, AllocsPerOp: 10, BytesPerOp: 15748},
	},
	{
		// RMC3's bottom L0 (2560 inputs, 1024 outputs), the largest layer
		// the host serves. Its one allocation is the output vector.
		Name: "matvec", Setup: matVec, MaxAllocs: 1,
	},
	{
		// One RMC3 bottom-layer weight row (2560 values) through the
		// hash-to-float kernel behind weight fill and vector synthesis.
		Name: "hash_floats", Setup: hashFloats, MaxAllocs: 0,
	},
}

// Sinks keep the compiler from discarding a timed call's result.
var (
	matVecSink tensor.Vector
	mlpSink    float32
)

// nullBatcher isolates the pool's own cost: serving a batch is one slice
// allocation and no simulation.
type nullBatcher struct{}

func (nullBatcher) ServeBatch(reqs []serving.Request) serving.BatchResult {
	return serving.BatchResult{Preds: make([]float32, serving.CountOf(reqs)), Latency: time.Microsecond}
}

func poolSubmit(tb testing.TB) func() {
	pool := serving.NewPool([]serving.Batcher{nullBatcher{}}, 8, 64)
	tb.Cleanup(pool.Close)
	ctx := context.Background()
	req := serving.Request{N: 1}
	return func() {
		if _, err := pool.Submit(ctx, req); err != nil {
			tb.Fatal(err)
		}
	}
}

func deviceShardServe(tb testing.TB) func() {
	cfg := model.RMC1()
	cfg.RowsPerTable = cfg.RowsForBudget(2 << 20)
	dev, err := core.New(cfg, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	sh := serving.NewDeviceShard(dev, nil, cfg.DenseDim)
	gen, err := trace.NewGenerator(trace.Config{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 31,
	})
	if err != nil {
		tb.Fatal(err)
	}
	reqs := make([]serving.Request, 8)
	for i := range reqs {
		reqs[i] = serving.Request{Sparse: gen.Batch(1), Dense: []tensor.Vector{gen.DenseInput(i, cfg.DenseDim)}}
	}
	return func() {
		if res := sh.ServeBatch(reqs); res.Err != nil || res.ReqErrs != nil {
			tb.Fatal(res.Err, res.ReqErrs)
		}
	}
}

// lookupRMC1 is the lookup cases' model: RMC1 at 2048 rows per table.
func lookupRMC1() model.Config {
	cfg := model.RMC1()
	cfg.RowsPerTable = 2048
	return cfg
}

// newLookupEngine lays cfg's tables out in 64 KiB extents on a small
// linear device and returns the lookup engine over them.
func newLookupEngine(tb testing.TB, cfg model.Config) *engine.LookupEngine {
	dev := ssd.MustNew(flash.Geometry{
		Channels: 4, DiesPerChannel: 4, PlanesPerDie: 2,
		BlocksPerPlane: 64, PagesPerBlock: 16, PageSize: 4096,
	})
	m, err := model.Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := embedding.NewStore(m, hostio.NewFS(dev, 64<<10))
	if err != nil {
		tb.Fatal(err)
	}
	return engine.NewLookupEngine(st, dev)
}

// localityTrace draws n inferences of cfg's shape from a locality-K trace.
func localityTrace(tb testing.TB, cfg model.Config, k float64, n int) [][][]int64 {
	tc, err := trace.Config{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 7,
	}.WithLocality(k)
	if err != nil {
		tb.Fatal(err)
	}
	return trace.MustNew(tc).Batch(n)
}

func lookupPoolHot(tb testing.TB) func() {
	cfg := lookupRMC1()
	eng := newLookupEngine(tb, cfg)
	batches := localityTrace(tb, cfg, 2, 64)
	i := 0
	return func() {
		j := i % len(batches)
		i++
		if _, _, err := eng.PoolBatch(0, batches[j:j+1], true); err != nil {
			tb.Fatal(err)
		}
	}
}

func lookupPoolCachedHot(tb testing.TB) func() {
	const batch = 8
	cfg := lookupRMC1()
	eng := newLookupEngine(tb, cfg)
	eng.SetEVCache(evcache.New(int64(cfg.Tables)*cfg.RowsPerTable*int64(cfg.EVSize()), cfg.EVSize()))
	sparses := localityTrace(tb, cfg, 0, 64*batch)
	batches := make([][][][]int64, 0, 64)
	for i := 0; i < len(sparses); i += batch {
		batches = append(batches, sparses[i:i+batch])
	}
	for _, bt := range batches {
		if _, _, err := eng.PoolBatch(0, bt, true); err != nil {
			tb.Fatal(err)
		}
	}
	i := 0
	return func() {
		bt := batches[i%len(batches)]
		i++
		if _, _, err := eng.PoolBatch(0, bt, true); err != nil {
			tb.Fatal(err)
		}
	}
}

func evcacheHit(tb testing.TB) func() {
	c := evcache.New(1024*128, 128)
	for r := int64(0); r < 64; r++ {
		c.Reserve(0, r)
	}
	i := int64(0)
	return func() {
		if !c.Get(0, i%64) {
			tb.Fatal("unexpected miss")
		}
		i++
		c.Hit(0)
	}
}

func evcacheMissFill(tb testing.TB) func() {
	const capEntries = 1024
	c := evcache.New(capEntries*128, 128)
	for r := int64(0); r < capEntries; r++ {
		c.Reserve(0, r)
	}
	row := int64(capEntries)
	return func() {
		if c.Get(0, row) {
			tb.Fatal("unexpected hit")
		}
		c.Reserve(0, row)
		row++
	}
}

func pageCacheTouch(tb testing.TB) func() {
	const capPages = 1 << 12
	c := hostio.NewPageCache(capPages*4096, 4096)
	for p := int64(0); p < capPages; p++ {
		c.Touch(0, p)
	}
	miss := int64(capPages)
	return func() {
		if c.Touch(0, miss) {
			tb.Fatal("unexpected hit")
		}
		if !c.Touch(0, miss-capPages/4) {
			tb.Fatal("unexpected miss")
		}
		miss++
	}
}

// rmc3 is the MLP-dominated serving workload's model: RMC3 at 64 MiB of
// tables.
func rmc3() model.Config {
	cfg := model.RMC3()
	cfg.RowsPerTable = cfg.RowsForBudget(64 << 20)
	return cfg
}

func buildRMC3(tb testing.TB) *model.Model {
	m, err := model.Build(rmc3())
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func shardBuild(tb testing.TB) func() {
	m := buildRMC3(tb)
	return func() {
		if _, err := core.NewFromModel(m, core.Options{}); err != nil {
			tb.Fatal(err)
		}
	}
}

func modelBuild(tb testing.TB) func() {
	cfg := rmc3()
	return func() {
		if _, err := model.Build(cfg); err != nil {
			tb.Fatal(err)
		}
	}
}

func mlpForward(tb testing.TB) func() {
	m := buildRMC3(tb)
	mlp, err := engine.NewMLPEngine(m, engine.DesignSearched, params.XCVU9P)
	if err != nil {
		tb.Fatal(err)
	}
	dense := make(tensor.Vector, m.Cfg.DenseDim)
	tensor.FillVector(dense, 1, 1)
	pooled := make([]tensor.Vector, m.Cfg.Tables)
	for t := range pooled {
		pooled[t] = make(tensor.Vector, m.Cfg.EVDim)
		tensor.FillVector(pooled[t], uint64(2+t), 1)
	}
	return func() {
		mlpSink += mlp.Forward(dense, pooled)
	}
}

func matVec(testing.TB) func() {
	m := tensor.NewMatrix(1024, 2560)
	tensor.FillMatrix(m, 1, 0.02)
	x := make(tensor.Vector, m.Cols)
	tensor.FillVector(x, 2, 1)
	return func() {
		matVecSink = m.MatVec(x)
	}
}

func hashFloats(testing.TB) func() {
	row := make([]float32, 2560)
	i := uint64(0)
	return func() {
		tensor.HashFloats(row, i, 0, 0.05)
		i++
	}
}
