// Online serving: an RM-SSD behind a batching request queue with Poisson
// arrivals, the deployment shape the paper's SLA motivation describes.
// A saturated replay measures the device's pipelined capacity; the loads
// are fractions of it, and tail latency grows as load approaches capacity.
//
// The device sits behind rmssd.NewDeviceShard, the same adapter rmserve
// puts behind each of its shards: coalesced requests run as one device
// batch on the shard's own simulated clock, and Replay pipelines the
// batches over their stage breakdowns.
//
//	go run ./examples/serving
package main

import (
	"fmt"
	"time"

	"rmssd"
)

const (
	maxBatch = 16
	requests = 3000
	seed     = 7
)

// replay serves the same request stream at rate requests per simulated
// second on a fresh device over the model m, and returns that device with
// the result.
func replay(m *rmssd.Model, rate float64) (rmssd.ReplayResult, *rmssd.Device) {
	cfg := m.Cfg
	gen := rmssd.MustNewTrace(rmssd.TraceConfig{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: seed,
	})
	src, err := rmssd.NewGeneratorSource(gen, 1, cfg.DenseDim)
	if err != nil {
		panic(err)
	}
	// The stream's requests carry their own inputs, so the shard needs no
	// generator of its own.
	dev, err := rmssd.NewDeviceFromModel(m, rmssd.DeviceOptions{})
	if err != nil {
		panic(err)
	}
	sh := rmssd.NewDeviceShard(dev, nil, cfg.DenseDim)
	res, err := rmssd.Replay([]rmssd.ServingBatcher{sh}, rmssd.ReplayConfig{
		Rate: rate, MaxBatch: maxBatch, Requests: requests, Seed: seed,
	}, src)
	if err != nil {
		panic(err)
	}
	return res, dev
}

func main() {
	cfg := rmssd.RMC1()
	cfg.RowsPerTable = cfg.RowsForBudget(256 << 20)

	m, err := rmssd.BuildModel(cfg)
	if err != nil {
		panic(err)
	}

	sat, dev := replay(m, 1e12)
	capacity := sat.ThroughputQPS
	analytic := dev.SteadyStateQPS(maxBatch)
	fmt.Printf("RM-SSD %s capacity: %.0f QPS measured (batch %d; analytic %.0f)\n\n",
		cfg.Name, capacity, maxBatch, analytic)
	fmt.Printf("%-12s %-12s %-10s %-10s %-10s\n", "load", "throughput", "batch", "P50", "P99")

	for _, frac := range []float64{0.2, 0.5, 0.8, 0.95} {
		res, _ := replay(m, frac*capacity)
		fmt.Printf("%-12s %-12s %-10.1f %-10s %-10s\n",
			fmt.Sprintf("%.0f%% cap", 100*frac),
			fmt.Sprintf("%.0f QPS", res.ThroughputQPS),
			res.MeanBatch,
			res.P50.Round(10*time.Microsecond),
			res.P99.Round(10*time.Microsecond))
	}
	fmt.Println("\nthe batcher absorbs load by growing batches toward the device's")
	fmt.Println("embedding-bound plateau; P99 stays bounded until capacity is reached.")
}
