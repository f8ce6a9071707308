package engine

import (
	"testing"

	"rmssd/internal/evcache"
	"rmssd/internal/trace"
)

// BenchmarkLookupPoolHotTrace measures the host cost of one inference's
// pooled lookups (PoolBatch over a one-inference sub-slice) under a K=2
// locality trace (Fig. 14's least-local preset: a 30 % hot mass over a Zipf
// hot set). Tracked in BENCH_simcore.json (allocs/op must not regress).
func BenchmarkLookupPoolHotTrace(b *testing.B) {
	cfg := smallRMC1()
	_, _, eng, _ := setupLookup(b, cfg)
	tc, err := trace.Config{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 7,
	}.WithLocality(2)
	if err != nil {
		b.Fatal(err)
	}
	gen := trace.MustNew(tc)
	batches := gen.Batch(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(batches)
		if _, _, err := eng.PoolBatch(0, batches[j:j+1], true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookupPoolCachedHotTrace measures the host cost of one
// materialised batch of 8 inferences whose lookups almost all hit a warm
// EV cache: a K=0 locality trace (an 80 % hot mass) against a cache large
// enough to hold every table, warmed over the whole trace before the
// timer. It guards the hit path's allocations in make bench-micro.
func BenchmarkLookupPoolCachedHotTrace(b *testing.B) {
	const batch = 8
	cfg := smallRMC1()
	_, _, eng, _ := setupLookup(b, cfg)
	eng.SetEVCache(evcache.New(int64(cfg.Tables)*cfg.RowsPerTable*int64(cfg.EVSize()), cfg.EVSize()))
	tc, err := trace.Config{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 7,
	}.WithLocality(0)
	if err != nil {
		b.Fatal(err)
	}
	sparses := trace.MustNew(tc).Batch(64 * batch)
	batches := make([][][][]int64, 0, 64)
	for i := 0; i < len(sparses); i += batch {
		batches = append(batches, sparses[i:i+batch])
	}
	for _, bt := range batches {
		if _, _, err := eng.PoolBatch(0, bt, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.PoolBatch(0, batches[i%len(batches)], true); err != nil {
			b.Fatal(err)
		}
	}
}
