package bench

import (
	"fmt"

	"rmssd/internal/core"
	"rmssd/internal/engine"
	"rmssd/internal/flash"
	"rmssd/internal/model"
	"rmssd/internal/params"
	"rmssd/internal/ssd"
)

// Ablations quantifies each of RM-SSD's design choices in isolation:
//
//   - vector-grained vs page-grained in-storage reads (Section IV-B);
//   - intra-layer decomposition + inter-layer composition vs the naive
//     layer-by-layer mapping (Section IV-C2/C3);
//   - system-level pipelining vs serial stages (Section IV-D);
//   - flash parallelism sensitivity (channels x dies), the lever behind
//     Eq. 1a's bEV.
func Ablations(opts Options) []*Table {
	opts = opts.withDefaults()
	return []*Table{
		ablationReadGranularity(opts),
		ablationMLPMapping(opts),
		ablationPipelining(opts),
		ablationFlashParallelism(opts),
		ablationScaleOut(opts),
		ablationQueueDepth(opts),
	}
}

// ablationReadGranularity compares the per-vector flash cost of page- and
// vector-grained reads analytically (the Section IV-B2 argument).
func ablationReadGranularity(opts Options) *Table {
	t := &Table{
		Title:  "Ablation: read granularity (per-vector flash channel cost)",
		Header: []string{"EV size", "Page-grained (cycles)", "Vector-grained (cycles)", "Bulk gain"},
	}
	for _, evSize := range []int{64, 128, 256} {
		// Per-vector steady-state channel occupancy: page reads are
		// bus-bound at the full page transfer; vector reads at
		// max(flush/dies, vector transfer).
		pageCost := float64(params.PageTransferCycles)
		if f := float64(params.FlushCycles) / float64(params.DiesPerChannel); f > pageCost {
			pageCost = f
		}
		vecCost := float64(params.VectorTransferCycles(evSize))
		if f := float64(params.FlushCycles) / float64(params.DiesPerChannel); f > vecCost {
			vecCost = f
		}
		t.AddRow(fmt.Sprintf("%dB", evSize),
			fmt.Sprintf("%.0f", pageCost), fmt.Sprintf("%.0f", vecCost),
			fmt.Sprintf("%.2fx", pageCost/vecCost))
	}
	t.Notes = append(t.Notes,
		"latency gain per read is larger: C_EV(128B)=2837 cycles vs Cpage=4000")
	return t
}

// ablationMLPMapping compares the three MLP engine designs' stage times and
// resources at the searched design's batch size.
func ablationMLPMapping(opts Options) *Table {
	t := &Table{
		Title:  "Ablation: MLP mapping (decomposition + composition + search)",
		Header: []string{"Model", "Design", "NBatch", "Tbot'", "Ttop'", "LUT", "DSP"},
	}
	for _, name := range []string{"RMC1", "RMC3"} {
		cfg := scaledConfig(name, opts)
		m := model.MustBuild(cfg)
		searched, err := engine.NewMLPEngine(m, engine.DesignSearched, params.XCVU9P)
		if err != nil {
			continue
		}
		nb := searched.NBatch
		for _, d := range []engine.Design{engine.DesignNaive, engine.DesignDefault, engine.DesignSearched} {
			e, err := engine.NewMLPEngine(m, d, params.XCVU9P)
			if err != nil {
				continue
			}
			_, bot, top := e.StageTimes(nb, params.NumChannels, params.DiesPerChannel)
			r := e.Resources()
			t.AddRow(name, d.String(), fmt.Sprintf("%d", nb),
				bot.String(), top.String(),
				fmt.Sprintf("%d", r.LUT), fmt.Sprintf("%d", r.DSP))
		}
	}
	t.Notes = append(t.Notes,
		"the searched design holds the default design's throughput at a fraction of its resources")
	return t
}

// ablationPipelining measures serial vs pipelined stage execution for the
// full RM-SSD (Section IV-D's system-level pipelining) from one saturated
// replay per model: the serial column runs the replayed batches back to
// back (Σ Breakdown.Total()), the pipelined column is the replay's own
// throughput, and the analytic sim.Pipeline figure is the oracle.
func ablationPipelining(opts Options) *Table {
	t := &Table{
		Title:  "Ablation: system-level pipelining",
		Header: []string{"Model", "Serial QPS", "Pipelined QPS", "Gain", "Analytic QPS"},
	}
	for _, name := range []string{"RMC1", "RMC2", "RMC3"} {
		cfg := scaledConfig(name, opts)
		r := rmssdFor(cfg, engine.DesignSearched)
		nb := r.NBatch()
		b := rmssdBatcher(r, traceFor(cfg, opts))
		res, err := replayLoad(b, saturatedRate, nb, opts.Iterations*nb*8, opts.Seed)
		if err != nil {
			t.AddRow(name, "error: "+err.Error(), "-", "-", "-")
			continue
		}
		serial := float64(res.Inferences) / b.serial.Seconds()
		t.AddRow(name, fmtQPS(serial), fmtQPS(res.ThroughputQPS),
			fmt.Sprintf("%.2fx", res.ThroughputQPS/serial), fmtQPS(r.SteadyStateQPS(nb)))
	}
	t.Notes = append(t.Notes,
		"pre-sending the next small batch while the device computes hides every non-bottleneck stage")
	return t
}

// ablationFlashParallelism sweeps channel and die counts: the bEV lever of
// Eq. 1a that bounds every embedding-dominated model.
func ablationFlashParallelism(opts Options) *Table {
	t := &Table{
		Title:  "Ablation: flash parallelism (RMC1 steady-state QPS)",
		Header: []string{"Channels", "Dies/channel", "bEV (Mvec/s)", "RM-SSD QPS"},
	}
	cfg := scaledConfig("RMC1", opts)
	channelSet := []int{2, 4, 8}
	dieSet := []int{1, 3, 6}
	// One cell per (channels, dies) point: each builds its own device.
	rows := make([][]string, len(channelSet)*len(dieSet))
	runIndexed(opts.Parallel, len(rows), func(idx int) {
		channels, dies := channelSet[idx/len(dieSet)], dieSet[idx%len(dieSet)]
		g := flash.DefaultGeometry()
		g.Channels = channels
		g.DiesPerChannel = dies
		// Keep capacity roughly constant.
		g.BlocksPerPlane = g.BlocksPerPlane * (4 * 3) / (channels * dies)
		r, err := core.New(cfg, core.Options{Geometry: g})
		if err != nil {
			rows[idx] = []string{fmt.Sprintf("%d", channels), fmt.Sprintf("%d", dies), "-", "error: " + err.Error()}
			return
		}
		bev := engine.VectorReadBandwidth(cfg.EVSize(), channels, dies).UnitsPerSecond(cfg.EVSize()) / 1e6
		rows[idx] = []string{fmt.Sprintf("%d", channels), fmt.Sprintf("%d", dies),
			fmt.Sprintf("%.2f", bev), fmtQPS(r.SteadyStateQPS(r.NBatch()))}
	})
	t.Rows = append(t.Rows, rows...)
	t.Notes = append(t.Notes,
		"vector-read bandwidth scales with channels x dies until the channel bus saturates")
	return t
}

// ablationScaleOut shards a model's tables across several RM-SSDs (the
// SSD-level parallelism Section II-B mentions): each device hosts
// tables/D tables and the host scatters lookups, so the embedding stage
// divides by D until the per-device MLP floor shows.
func ablationScaleOut(opts Options) *Table {
	t := &Table{
		Title:  "Ablation: multi-SSD scale-out (RMC2, tables sharded across devices)",
		Header: []string{"Devices", "Tables/device", "Aggregate QPS", "Scaling"},
	}
	cfg := scaledConfig("RMC2", opts)
	deviceSet := []int{1, 2, 4, 8}
	// Two-pass: the per-device QPS cells are independent (each builds its
	// own sharded device); the scaling column needs the devices==1 base, so
	// it is derived sequentially from the collected cells afterwards.
	type soCell struct {
		tables int
		qps    float64
	}
	cells := make([]soCell, len(deviceSet))
	runIndexed(opts.Parallel, len(deviceSet), func(i int) {
		shard := cfg
		shard.Tables = cfg.Tables / deviceSet[i]
		if shard.Tables == 0 {
			return
		}
		// Keep the per-model budget constant: each shard holds its share.
		r := rmssdFor(shard, engine.DesignSearched)
		nb := r.NBatch()
		// Every device serves each inference's shard.
		cells[i] = soCell{shard.Tables, r.SteadyStateQPS(nb)}
	})
	var base float64
	for i, devices := range deviceSet {
		c := cells[i]
		if c.tables == 0 {
			continue
		}
		if devices == 1 {
			base = c.qps
		}
		t.AddRow(fmt.Sprintf("%d", devices), fmt.Sprintf("%d", c.tables),
			fmtQPS(c.qps), fmt.Sprintf("%.2fx", c.qps/base))
	}
	t.Notes = append(t.Notes,
		"the inference completes when the slowest shard finishes; with equal shards",
		"throughput scales near-linearly until the top-MLP stage floors it")
	return t
}

// ablationQueueDepth sweeps the block path's queue depth: Table II's 45K
// IOPS is a QD1 latency artifact; the flash array behind it sustains far
// more, which is exactly the parallelism the in-storage engines tap
// without the host round trip (Section II-B's bandwidth-mismatch
// motivation).
func ablationQueueDepth(opts Options) *Table {
	t := &Table{
		Title:  "Ablation: block-path random 4K reads vs queue depth",
		Header: []string{"QD", "IOPS", "Bandwidth (MB/s)"},
	}
	cfg := scaledConfig("RMC1", opts)
	depths := []int{1, 4, 16, 64}
	// One cell per queue depth, each over its own fresh device.
	rows := make([][]string, len(depths))
	runIndexed(opts.Parallel, len(depths), func(i int) {
		qd := depths[i]
		dev := envFor(cfg).Dev
		qp, err := ssd.NewQueuePair(dev, qd)
		if err != nil {
			rows[i] = []string{fmt.Sprintf("%d", qd), "error: " + err.Error(), "-"}
			return
		}
		iops := qp.MeasureRandomReadIOPS(512, opts.Seed+uint64(qd))
		rows[i] = []string{fmt.Sprintf("%d", qd), fmt.Sprintf("%.0f", iops),
			fmt.Sprintf("%.0f", iops*4096/1e6)}
	})
	t.Rows = append(t.Rows, rows...)
	t.Notes = append(t.Notes,
		"QD1 lands at Table II's 45K IOPS; deeper queues expose the flash array's",
		"internal parallelism — the bandwidth the in-storage engines exploit directly")
	return t
}
