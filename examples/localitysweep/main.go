// Locality sweep (Fig. 14): RecSSD's throughput depends on how much of the
// lookup stream its host-side cache can capture; RM-SSD's does not, because
// the Embedding Lookup Engine reads every vector at vector granularity
// regardless of reuse.
//
//	go run ./examples/localitysweep
package main

import (
	"fmt"
	"time"

	"rmssd"
)

func main() {
	cfg := rmssd.RMC1()
	cfg.RowsPerTable = cfg.RowsForBudget(512 << 20)

	dev := rmssd.MustNewDevice(cfg, rmssd.DeviceOptions{})
	rmQPS := dev.SteadyStateQPS(4)

	fmt.Println("trace locality K -> vector-cache hit ratio (Fig. 14 presets):")
	fmt.Println("K=0 -> 80%, K=0.3 -> 65% (default), K=1 -> 45%, K=2 -> 30%")
	fmt.Println()
	fmt.Printf("%-5s %-10s %-12s %-12s %-10s\n", "K", "hit ratio", "RecSSD QPS", "RM-SSD QPS", "gap")

	const inferences = 60
	for _, k := range []float64{0, 0.3, 1, 2} {
		tc := rmssd.TraceConfig{
			Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 11,
		}
		tc = tc.Default()
		tc, err := tc.WithLocality(k)
		if err != nil {
			panic(err)
		}
		gen := rmssd.MustNewTrace(tc)

		env, err := rmssd.NewEnv(cfg, rmssd.DefaultGeometry())
		if err != nil {
			panic(err)
		}
		rec := rmssd.NewRecSSD(env)
		var now time.Duration
		// Warm the cache, then measure.
		for i := 0; i < inferences/2; i++ {
			now, _ = rec.InferBatchTiming(now, gen.Batch(1))
		}
		start := now
		for i := 0; i < inferences; i++ {
			now, _ = rec.InferBatchTiming(now, gen.Batch(1))
		}
		recQPS := float64(inferences) / (now - start).Seconds()

		fmt.Printf("%-5.1f %-10s %-12.0f %-12.0f %.1fx\n",
			k, fmt.Sprintf("%.0f%%", 100*tc.HotMass), recQPS, rmQPS, rmQPS/recQPS)
	}
	fmt.Println("\nRM-SSD's column is constant: in-storage vector-grained pooling is")
	fmt.Println("locality-blind, while RecSSD degrades as its host cache loses hits.")
}
