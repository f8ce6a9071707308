package bench

import (
	"fmt"
	"time"

	"rmssd/internal/baseline"
	"rmssd/internal/engine"
)

// ServingStudy extends the paper toward its own motivation: the "strict
// service level agreement requirements" of Section I. It replays an online
// request stream through the RM-SSD, the DRAM host and RecSSD behind a
// coalescing batcher and reports tail latency versus offered load. Every
// system is a real simulated device on serving.Replay's timeline; the
// loads are fractions of the RM-SSD's capacity as measured by a saturated
// replay.
func ServingStudy(opts Options) []*Table {
	opts = opts.withDefaults()
	cfg := scaledConfig("RMC1", opts)
	t := &Table{
		Title:  "Serving extension: tail latency vs offered load (RMC1, online batcher)",
		Header: []string{"System", "Load (QPS)", "Throughput", "Mean batch", "P50", "P99"},
	}
	const maxBatch = 16
	requests := opts.Iterations * 50
	systems := map[string]func() *timedBatcher{
		"RM-SSD": func() *timedBatcher {
			return rmssdBatcher(rmssdFor(cfg, engine.DesignSearched), traceFor(cfg, opts))
		},
		"DRAM": func() *timedBatcher {
			return hostBatcher(baseline.NewDRAM(modelFor(cfg)), traceFor(cfg, opts))
		},
		"RecSSD": func() *timedBatcher { return hostBatcher(recssdFor(cfg, opts), traceFor(cfg, opts)) },
	}
	r := rmssdFor(cfg, engine.DesignSearched)
	sat, err := replayLoad(rmssdBatcher(r, traceFor(cfg, opts)), saturatedRate, maxBatch, requests, opts.Seed)
	if err != nil {
		t.AddRow("RM-SSD", "saturated", "error: "+err.Error(), "-", "-", "-")
		return []*Table{t}
	}
	capacity := sat.ThroughputQPS

	cells := []struct {
		system string
		load   float64 // fraction of the RM-SSD's measured capacity
	}{
		{"RM-SSD", 0.3}, {"RM-SSD", 0.7}, {"RM-SSD", 0.9},
		{"DRAM", 0.3}, {"DRAM", 0.7}, {"DRAM", 0.9},
		{"RecSSD", 0.3}, {"RecSSD", 0.7},
	}
	// One cell per (system, load), each over its own fresh system.
	rows := make([][]string, len(cells))
	runIndexed(opts.Parallel, len(cells), func(i int) {
		c := cells[i]
		rate := c.load * capacity
		res, err := replayLoad(systems[c.system](), rate, maxBatch, requests, opts.Seed)
		if err != nil {
			rows[i] = []string{c.system, fmtQPS(rate), "error: " + err.Error(), "-", "-", "-"}
			return
		}
		rows[i] = []string{c.system, fmtQPS(rate), fmtQPS(res.ThroughputQPS),
			fmt.Sprintf("%.1f", res.MeanBatch),
			res.P50.Round(time.Microsecond).String(),
			res.P99.Round(time.Microsecond).String()}
	})
	t.Rows = append(t.Rows, rows...)

	t.Notes = append(t.Notes,
		fmt.Sprintf("RM-SSD capacity: %s inf/s measured by a saturated replay at batch %d (analytic oracle %s)",
			fmtQPS(capacity), maxBatch, fmtQPS(r.SteadyStateQPS(maxBatch))),
		"RecSSD saturates below RM-SSD's capacity and its P99 explodes; the DRAM host",
		"keeps up on throughput but cannot hold the 30 GB tables at all — the paper's",
		"premise is capacity, and RM-SSD serves SSD-resident tables within SLA")
	return []*Table{t}
}
