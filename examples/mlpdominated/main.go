// MLP-dominated workloads: RMC3, NCF and WnD, where the MLP Acceleration
// Engine — not the Embedding Lookup Engine — supplies the speedup. Shows
// Rule Three's batch conversion (Fig. 12c) and the Fig. 15 result that the
// in-storage FPGA beats even the unlimited-DRAM host deployment.
//
//	go run ./examples/mlpdominated
package main

import (
	"fmt"

	"rmssd"
)

func main() {
	for _, mk := range []func() rmssd.ModelConfig{rmssd.RMC3, rmssd.NCF, rmssd.WnD} {
		cfg := mk()
		cfg.RowsPerTable = cfg.RowsForBudget(256 << 20)
		m, err := rmssd.BuildModel(cfg)
		if err != nil {
			panic(err)
		}

		fmt.Printf("=== %s: %.2f MB of MLP weights, %d lookups/inference ===\n",
			cfg.Name, float64(cfg.MLPWeightBytes())/(1<<20), cfg.Tables*cfg.Lookups)

		// Host (DRAM-resident) single-stream inference cost.
		dram := rmssd.NewDRAM(m)
		done, bd := dram.InferBatchTiming(0, batchOfOne(cfg))
		fmt.Printf("host DRAM inference: %v (MLP share %.0f%%)\n",
			done, 100*float64(bd.MLP())/float64(bd.Total()))

		// Full RM-SSD: the kernel search picks the device batch that
		// converts the model to embedding-dominated (Rule Three).
		dev, err := rmssd.NewDeviceFromModel(m, rmssd.DeviceOptions{})
		if err != nil {
			panic(err)
		}
		fmt.Printf("kernel search chose device batch %d\n", dev.NBatch())
		fmt.Println("throughput scaling with device batch size:")
		for _, b := range []int{1, 2, 4, 8, 16} {
			marker := ""
			if b == dev.NBatch() {
				marker = "  <- conversion point (Rule Three)"
			}
			fmt.Printf("  batch %2d: %8.0f QPS%s\n", b, dev.SteadyStateQPS(b), marker)
		}

		// The naive in-storage mapping for contrast (no decomposition,
		// no composition, no pipelining).
		naive, err := rmssd.NewDeviceFromModel(m, rmssd.DeviceOptions{Design: rmssd.DesignNaive})
		if err != nil {
			panic(err)
		}
		nb := dev.NBatch()
		fmt.Printf("at batch %d: RM-SSD %.0f QPS vs RM-SSD-Naive %.0f QPS vs host DRAM %.0f QPS\n\n",
			nb, dev.SteadyStateQPS(nb), naive.SteadyStateQPS(nb),
			float64(nb)/hostBatchSeconds(m, nb))
	}
}

// batchOfOne builds a deterministic single-inference batch for the model.
func batchOfOne(cfg rmssd.ModelConfig) [][][]int64 {
	gen := rmssd.MustNewTrace(rmssd.TraceConfig{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 3,
	})
	return gen.Batch(1)
}

// hostBatchSeconds prices one host batch iteration in seconds.
func hostBatchSeconds(m *rmssd.Model, b int) float64 {
	d := m.HostOverheadTime() + m.SLSComputeTimeBatch(b) +
		m.BottomTimeBatch(b) + m.TopTimeBatch(b)
	return d.Seconds()
}
