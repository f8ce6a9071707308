// Online serving: an RM-SSD behind a batching request queue with Poisson
// arrivals, the deployment shape the paper's SLA motivation describes.
// A saturated replay measures the device's pipelined capacity; the loads
// are fractions of it, and tail latency grows as load approaches capacity.
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

// shard serves coalesced requests as one device batch on the device's own
// clock; Replay pipelines the batches from their Breakdown.
type shard struct {
	dev *rmssd.Device
	now time.Duration
}

func (s *shard) ServeBatch(reqs []rmssd.ServingRequest) rmssd.ServingBatchResult {
	var denses []rmssd.Vector
	var sparses [][][]int64
	for _, r := range reqs {
		denses = append(denses, r.Dense...)
		sparses = append(sparses, r.Sparse...)
	}
	outs, done, bd, err := s.dev.InferBatch(s.now, denses, sparses)
	res := rmssd.ServingBatchResult{Preds: outs, Latency: done - s.now, Meta: bd, Err: err}
	s.now = done
	return res
}

// replay serves the same request stream at rate requests per simulated
// second on a fresh device.
func replay(cfg rmssd.ModelConfig, rate float64) rmssd.ReplayResult {
	gen := rmssd.MustNewTrace(rmssd.TraceConfig{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: seed,
	})
	src, err := rmssd.NewGeneratorSource(gen, 1, cfg.DenseDim)
	if err != nil {
		panic(err)
	}
	dev := &shard{dev: rmssd.MustNewDevice(cfg, rmssd.DeviceOptions{})}
	res, err := rmssd.Replay([]rmssd.ServingBatcher{dev}, rmssd.ReplayConfig{
		Rate: rate, MaxBatch: maxBatch, Requests: requests, Seed: seed,
	}, src)
	if err != nil {
		panic(err)
	}
	return res
}

func main() {
	cfg := rmssd.RMC1()
	cfg.RowsPerTable = cfg.RowsForBudget(256 << 20)

	capacity := replay(cfg, 1e12).ThroughputQPS
	analytic := rmssd.MustNewDevice(cfg, rmssd.DeviceOptions{}).SteadyStateQPS(maxBatch)
	fmt.Printf("RM-SSD %s capacity: %.0f QPS measured (batch %d; analytic %.0f)\n\n",
		cfg.Name, capacity, maxBatch, analytic)
	fmt.Printf("%-12s %-12s %-10s %-10s %-10s\n", "load", "throughput", "batch", "P50", "P99")

	for _, frac := range []float64{0.2, 0.5, 0.8, 0.95} {
		res := replay(cfg, frac*capacity)
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
