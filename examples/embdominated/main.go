// Embedding-dominated workload: RMC2 (32 tables x 120 lookups at dim 64)
// compared across the naive SSD deployment, RecSSD and the full RM-SSD.
// This is the regime where the Embedding Lookup Engine's vector-grained
// reads pay off: the paper's Fig. 11/12 story.
//
//	go run ./examples/embdominated
package main

import (
	"fmt"
	"time"

	"rmssd"
)

func main() {
	cfg := rmssd.RMC2()
	cfg.RowsPerTable = cfg.RowsForBudget(512 << 20) // 512 MiB demo tables
	fmt.Printf("embedding-dominated model %s: %d vectors pooled per inference\n\n",
		cfg.Name, cfg.Tables*cfg.Lookups)

	gen := rmssd.MustNewTrace(rmssd.TraceConfig{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 7,
	})

	const inferences = 40

	// SSD-S: vectors read one by one through the file system with a
	// DRAM-starved page cache.
	env, err := rmssd.NewEnv(cfg, rmssd.DefaultGeometry())
	if err != nil {
		panic(err)
	}
	ssds := rmssd.NewSSDS(env)
	var now time.Duration // simulated time (sim.Time is a Duration alias)
	for i := 0; i < inferences; i++ {
		now, _ = ssds.InferBatchTiming(now, gen.Batch(1))
	}
	ssdsTime := time.Duration(now) / inferences
	amp := ssds.Host().Stats().Amplification()
	fmt.Printf("SSD-S:  %8v per inference (read amplification %.1fx)\n", ssdsTime.Round(time.Microsecond), amp)

	// RecSSD: page-grained in-SSD pooling plus a host vector cache.
	env2, err := rmssd.NewEnv(cfg, rmssd.DefaultGeometry())
	if err != nil {
		panic(err)
	}
	rec := rmssd.NewRecSSD(env2)
	now = 0
	for i := 0; i < inferences; i++ {
		now, _ = rec.InferBatchTiming(now, gen.Batch(1))
	}
	recTime := time.Duration(now) / inferences
	fmt.Printf("RecSSD: %8v per inference (host cache hit %.0f%%)\n",
		recTime.Round(time.Microsecond), 100*rec.Cache().HitRatio())

	// Full RM-SSD: vector-grained lookups and in-storage MLP.
	dev := rmssd.MustNewDevice(cfg, rmssd.DeviceOptions{})
	qps := dev.SteadyStateQPS(1)
	rmTime := time.Duration(float64(time.Second) / qps)
	fmt.Printf("RM-SSD: %8v per inference (steady state, %.0f QPS)\n\n", rmTime.Round(time.Microsecond), qps)

	fmt.Printf("RM-SSD speedup: %.1fx over SSD-S, %.1fx over RecSSD\n",
		float64(ssdsTime)/float64(rmTime), float64(recTime)/float64(rmTime))
	fmt.Println("\nwhy: every lookup moves only the 256-byte vector over the flash")
	fmt.Println("channel bus instead of a 4 KiB page, and pooling happens beside the")
	fmt.Println("flash, so only 32 pooled vectors ever cross PCIe.")
}
