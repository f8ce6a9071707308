package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"rmssd"
)

// Locality comparison: the same K=2 hot trace (Fig. 14's least-local
// preset, 30 % hot mass) is replayed through two identically configured
// devices — one with the EV cache and intra-batch dedup enabled, one plain —
// and the simulated aggregate throughput of each is recorded. Predictions
// must be byte-identical: the locality path only removes redundant fetches,
// never changes values.

// LocalityReport records the cache+dedup vs. plain comparison.
type LocalityReport struct {
	Model         string  `json:"model"`
	TableMB       int64   `json:"table_mb"`
	LocalityK     float64 `json:"locality_k"`
	Inferences    int     `json:"inferences"`
	EVCacheMB     int64   `json:"ev_cache_mb"`
	Lookups       int64   `json:"lookups"`
	DedupHits     int64   `json:"dedup_hits"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	PlainSimQPS   float64 `json:"plain_sim_qps"`
	CachedSimQPS  float64 `json:"cached_sim_qps"`
	SimSpeedup    float64 `json:"sim_speedup"`
	ByteIdentical bool    `json:"predictions_byte_identical"`
}

// runLocality builds the two devices, replays the shared hot trace and
// compares.
func runLocality(tableMB, cacheMB int64, inferences, batch int) LocalityReport {
	cfg := rmssd.RMC1() // embedding-dominated: the lookup stage is the bottleneck
	cfg.RowsPerTable = cfg.RowsForBudget(tableMB << 20)

	plain, err := rmssd.NewDevice(cfg, rmssd.DeviceOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cached, err := rmssd.NewDevice(cfg, rmssd.DeviceOptions{
		EVCacheBytes: cacheMB << 20,
		DedupLookups: true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	tc, err := rmssd.TraceConfig{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 5,
	}.WithLocality(2)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	gen := rmssd.MustNewTrace(tc)
	sparses := gen.Batch(inferences)
	denses := make([]rmssd.Vector, inferences)
	for i := range denses {
		denses[i] = gen.DenseInput(i, cfg.DenseDim)
	}

	run := func(dev *rmssd.Device) ([]float32, float64) {
		preds := make([]float32, 0, inferences)
		var now time.Duration // simulated clock
		for off := 0; off < len(sparses); off += batch {
			end := off + batch
			if end > len(sparses) {
				end = len(sparses)
			}
			outs, done, _, err := dev.InferBatch(now, denses[off:end], sparses[off:end])
			if err != nil {
				// Generator inputs on an unfaulted device cannot error.
				panic(fmt.Sprintf("rmperf: %v", err))
			}
			preds = append(preds, outs...)
			now = done
		}
		var qps float64
		if now > 0 {
			qps = float64(len(sparses)) / now.Seconds()
		}
		return preds, qps
	}

	plainPreds, plainQPS := run(plain)
	cachedPreds, cachedQPS := run(cached)

	identical := len(plainPreds) == len(cachedPreds)
	if identical {
		for i := range plainPreds {
			if math.Float32bits(plainPreds[i]) != math.Float32bits(cachedPreds[i]) {
				identical = false
				break
			}
		}
	}

	c := cached.Counters()
	rep := LocalityReport{
		Model:         cfg.Name,
		TableMB:       tableMB,
		LocalityK:     2,
		Inferences:    inferences,
		EVCacheMB:     cacheMB,
		Lookups:       c.Lookups,
		DedupHits:     c.DedupHits,
		CacheHitRatio: c.HitRatio(),
		PlainSimQPS:   plainQPS,
		CachedSimQPS:  cachedQPS,
		ByteIdentical: identical,
	}
	if plainQPS > 0 {
		rep.SimSpeedup = cachedQPS / plainQPS
	}
	return rep
}
