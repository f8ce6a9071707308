package main

import (
	"context"
	"math"
	"strconv"
	"sync"
	"testing"

	"rmssd"
	"rmssd/internal/serving"
	"rmssd/internal/wire"
)

// TestCachedShardedPoolConcurrent drives a cache+dedup server from many
// goroutines at once and checks every response bit-for-bit against an
// uncached reference device. Predictions depend only on a request's own
// inputs — never on coalescing, shard assignment or cache state — so the
// equality must hold however the race resolves. Run under -race this also
// proves the per-shard caches are confined to their shard goroutines.
func TestCachedShardedPoolConcurrent(t *testing.T) {
	cfg := rmssd.RMC1()
	cfg.RowsPerTable = cfg.RowsForBudget(8 << 20)
	s := serveDecls(t, 0, wire.ModelDecl{
		Model: "RMC1", TableMB: 8, Shards: 2, MaxBatch: 8, Queue: 64,
		EVCacheMB: 4, Dedup: true,
	})

	// Hot-skewed inputs (K=2) so the caches actually serve hits.
	tc, err := rmssd.TraceConfig{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 11,
	}.WithLocality(2)
	if err != nil {
		t.Fatal(err)
	}
	gen := rmssd.MustNewTrace(tc)

	const n = 24
	ref := rmssd.MustNewDevice(cfg, rmssd.DeviceOptions{})
	denses := make([]rmssd.Vector, n)
	sparses := make([][][]int64, n)
	want := make([]float32, n)
	for i := 0; i < n; i++ {
		denses[i] = gen.DenseInput(i, cfg.DenseDim)
		sparses[i] = gen.Batch(1)[0]
		outs, _, _, err := ref.InferBatch(0, denses[i:i+1], sparses[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = outs[0]
	}

	pool := defPool(t, s)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := serving.Request{Sparse: sparses[i : i+1], Dense: denses[i : i+1]}
			resp, err := pool.Submit(context.Background(), req)
			if err != nil {
				errs <- err
				return
			}
			if len(resp.Preds) != 1 || math.Float32bits(resp.Preds[0]) != math.Float32bits(want[i]) {
				t.Errorf("request %d: cached pred %v, reference %v", i, resp.Preds, want[i])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for i, sh := range s.def.shards {
		if sh.sh.Device().(*rmssd.Device).Lookup().EVCache() == nil {
			t.Fatalf("no EV cache installed on shard %d", i)
		}
	}
	snap, err := s.def.snapshot(s.router)
	if err != nil {
		t.Fatal(err)
	}
	if snap.DedupHits == 0 && snap.CacheHits == 0 {
		t.Errorf("hot trace produced no dedup or cache hits (lookups=%d)", snap.Lookups)
	}
}

// TestEVCacheMBBounds: -ev-cache-mb and the -models key evCacheMB share one
// bound, checked before the MiB→byte shift. Unchecked, 2^43 MiB shifted
// into MinInt64 and a negative budget silently switched the cache off.
func TestEVCacheMBBounds(t *testing.T) {
	for _, mb := range []int64{-1, 1<<20 + 1, 8796093022208} {
		v := strconv.FormatInt(mb, 10)
		rejectBoth(t, "evCacheMB "+v,
			[]string{"-table-mb", "1", "-shards", "1", "-queue", "8", "-ev-cache-mb", v},
			`{"models": [{"model": "RMC1", "tableMB": 1, "evCacheMB": `+v+`}]}`, "evCacheMB")
	}
	// The top of the range is accepted: the cache allocates only what is
	// resident, so even a 2^40-byte budget costs nothing up front.
	s := serveDecls(t, 0, wire.ModelDecl{Model: "RMC1", TableMB: 1, Shards: 1, Queue: 8, EVCacheMB: 1 << 20})
	if c := s.def.shards[0].sh.Device().(*rmssd.Device).Lookup().EVCache(); c == nil || c.CapEntries() == 0 {
		t.Fatal("2^20 MiB cache not installed")
	}
}
