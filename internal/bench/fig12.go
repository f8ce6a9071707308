package bench

import (
	"fmt"

	"rmssd/internal/baseline"
	"rmssd/internal/core"
	"rmssd/internal/engine"
	"rmssd/internal/model"
)

// hostQPS measures a host system's steady-state throughput at a batch
// size. Each cell builds its own fresh system (and trace) so measurements
// never replay indices another cell faulted in — which is also what makes
// the cells safe to evaluate in parallel.
func hostQPS(sys baseline.System, cfg model.Config, opts Options, batch int) float64 {
	gen := traceFor(cfg, opts)
	iters := opts.Iterations
	if batch > 1 {
		iters = opts.Iterations / batch
		if iters < 5 {
			iters = 5
		}
	}
	start, _ := iterate(sys, gen, batch, iters/2, 0)
	end, _ := iterate(sys, gen, batch, iters, start)
	return float64(iters*batch) / (end - start).Seconds()
}

// rmssdQPS returns the device's steady-state throughput at a host batch
// size: large host batches partition into device batches (Section IV-D).
func rmssdQPS(r *core.RMSSD, batch int) float64 {
	return r.SteadyStateQPS(batch)
}

// Fig12 reproduces the throughput-vs-batch study across all six systems.
// Each (batch, host-system) pair is one independent cell over a freshly
// built system; the two analytic RM-SSD columns are one cell each (a single
// device whose SteadyStateQPS is a pure function of the batch size).
func Fig12(opts Options) []*Table {
	opts = opts.withDefaults()
	batches := []int{1, 2, 4, 8, 16, 32}
	hosts := []struct {
		col   int
		build func(cfg model.Config) baseline.System
	}{
		{1, func(cfg model.Config) baseline.System { return baseline.NewSSDS(envFor(cfg)) }},
		{2, func(cfg model.Config) baseline.System { return recssdFor(cfg, opts) }},
		{3, func(cfg model.Config) baseline.System { return baseline.NewEmbVectorSum(envFor(cfg)) }},
		{6, func(cfg model.Config) baseline.System { return baseline.NewDRAM(modelFor(cfg)) }},
	}
	var tables []*Table
	for _, name := range []string{"RMC1", "RMC2", "RMC3"} {
		cfg := scaledConfig(name, opts)
		t := &Table{
			Title:  fmt.Sprintf("Fig. 12: throughput (QPS) vs batch size — %s", name),
			Header: []string{"Batch", "SSD-S", "RecSSD", "EMB-VectorSum", "RM-SSD-Naive", "RM-SSD", "DRAM"},
		}
		grid := make([][]string, len(batches))
		for bi, batch := range batches {
			grid[bi] = make([]string, len(t.Header))
			grid[bi][0] = fmt.Sprintf("%d", batch)
		}
		nHost := len(batches) * len(hosts)
		runIndexed(opts.Parallel, nHost+2, func(idx int) {
			switch {
			case idx < nHost:
				bi, hi := idx/len(hosts), idx%len(hosts)
				h := hosts[hi]
				grid[bi][h.col] = fmtQPS(hostQPS(h.build(cfg), cfg, opts, batches[bi]))
			case idx == nHost: // RM-SSD-Naive column
				naive := rmssdFor(cfg, engine.DesignNaive)
				for bi, batch := range batches {
					grid[bi][4] = fmtQPS(rmssdQPS(naive, batch))
				}
			default: // RM-SSD column
				full := rmssdFor(cfg, engine.DesignSearched)
				for bi, batch := range batches {
					grid[bi][5] = fmtQPS(rmssdQPS(full, batch))
				}
			}
		})
		t.Rows = append(t.Rows, grid...)
		t.Notes = append(t.Notes,
			"paper claims: RM-SSD 20-100x over SSD-S; 1.5-2.6x over RecSSD;",
			"RMC1/2 flat in batch (embedding-bound); RMC3 scales until ~batch 4 then saturates")
		tables = append(tables, t)
	}
	return tables
}

// Fig14 reproduces the locality-sensitivity study: RM-SSD vs RecSSD across
// the four trace locality presets.
func Fig14(opts Options) []*Table {
	opts = opts.withDefaults()
	ks := []float64{0, 0.3, 1, 2}
	var tables []*Table
	for _, name := range []string{"RMC1", "RMC2", "RMC3"} {
		cfg := scaledConfig(name, opts)
		t := &Table{
			Title:  fmt.Sprintf("Fig. 14: throughput vs input locality — %s", name),
			Header: []string{"K", "Hit ratio", "RecSSD QPS", "RecSSD hit", "RM-SSD QPS"},
		}
		type recCell struct{ qps, hit string }
		recs := make([]recCell, len(ks))
		var rmQPS string
		// One cell per locality preset (a fresh RecSSD each) plus one for
		// the locality-independent RM-SSD figure.
		runIndexed(opts.Parallel, len(ks)+1, func(idx int) {
			if idx == len(ks) {
				full := rmssdFor(cfg, engine.DesignSearched)
				rmQPS = fmtQPS(rmssdQPS(full, 4))
				return
			}
			o := opts
			o.LocalityK = ks[idx]
			rec := recssdFor(cfg, o)
			q := hostQPS(rec, cfg, o, 4)
			recs[idx] = recCell{fmtQPS(q), fmt.Sprintf("%.0f%%", 100*rec.Cache().HitRatio())}
		})
		for i, k := range ks {
			hr := map[float64]float64{0: 0.80, 0.3: 0.65, 1: 0.45, 2: 0.30}[k]
			t.AddRow(fmt.Sprintf("%.1f", k), fmt.Sprintf("%.0f%%", 100*hr),
				recs[i].qps, recs[i].hit, rmQPS)
		}
		t.Notes = append(t.Notes,
			"paper: RecSSD throughput degrades as locality drops; RM-SSD maintains the same throughput")
		tables = append(tables, t)
	}
	return tables
}

// Fig15 reproduces the extreme MLP-dominated study on NCF and WnD.
func Fig15(opts Options) []*Table {
	opts = opts.withDefaults()
	t := &Table{
		Title:  "Fig. 15: throughput of NCF and WnD (QPS x1000)",
		Header: []string{"Model", "SSD-S", "RecSSD", "EMB-VectorSum", "RM-SSD-Naive", "RM-SSD", "DRAM"},
	}
	const hostBatch = 32
	models := []string{"NCF", "WnD"}
	const cols = 6 // columns 1..6 of the table
	grid := make([][]string, len(models))
	for i := range grid {
		grid[i] = make([]string, cols)
	}
	k := func(q float64) string { return fmt.Sprintf("%.1f", q/1000) }
	runIndexed(opts.Parallel, len(models)*cols, func(idx int) {
		mi, ci := idx/cols, idx%cols
		cfg := scaledConfig(models[mi], opts)
		var q float64
		switch ci {
		case 0:
			q = hostQPS(baseline.NewSSDS(envFor(cfg)), cfg, opts, hostBatch)
		case 1:
			q = hostQPS(recssdFor(cfg, opts), cfg, opts, hostBatch)
		case 2:
			q = hostQPS(baseline.NewEmbVectorSum(envFor(cfg)), cfg, opts, hostBatch)
		case 3:
			q = rmssdQPS(rmssdFor(cfg, engine.DesignNaive), hostBatch)
		case 4:
			full := rmssdFor(cfg, engine.DesignSearched)
			q = rmssdQPS(full, full.NBatch())
		default:
			q = hostQPS(baseline.NewDRAM(modelFor(cfg)), cfg, opts, hostBatch)
		}
		grid[mi][ci] = k(q)
	})
	for mi, cells := range grid {
		t.AddRow(append([]string{models[mi]}, cells...)...)
	}
	t.Notes = append(t.Notes,
		"paper (QPS x1000): NCF 2.1/15.8/20.0/200.0/232.6/21.8; WnD 0.3/5.3/8.9/12.5/33.3/10.3",
		"claims: ~100x over SSD-S, 6-15x over RecSSD, RM-SSD beats even DRAM")
	return []*Table{t}
}

// Table4 reproduces the I/O traffic reduction factors: baseline SSD-S
// device traffic per inference divided by each system's host-interface
// traffic per inference. One cell per model.
func Table4(opts Options) []*Table {
	opts = opts.withDefaults()
	t := &Table{
		Title:  "Table IV: I/O traffic reduction vs SSD-S",
		Header: []string{"Model", "SSD-S bytes/inf", "RecSSD", "EMB-VectorSum", "RM-SSD"},
	}
	models := []string{"RMC1", "RMC2", "RMC3"}
	rows := make([][]string, len(models))
	runIndexed(opts.Parallel, len(models), func(mi int) {
		cfg := scaledConfig(models[mi], opts)
		ssds := baseline.NewSSDS(envFor(cfg))
		gen := traceFor(cfg, opts)
		now, _ := iterate(ssds, gen, 1, opts.WarmupIterations, 0)
		ssds.Host().ResetStats()
		iterate(ssds, gen, 1, opts.Iterations, now)
		perInf := float64(ssds.Host().Stats().BytesFromDevice) / float64(opts.Iterations)
		pooledBytes := float64(cfg.Tables * cfg.EVSize()) // RecSSD and EMB-VectorSum return pooled vectors
		rows[mi] = []string{models[mi],
			fmt.Sprintf("%.0f", perInf),
			fmt.Sprintf("%.0f", perInf/pooledBytes),
			fmt.Sprintf("%.0f", perInf/pooledBytes),
			fmt.Sprintf("%.0f", perInf/64)} // RM-SSD returns one 64-byte MMIO line
	})
	t.Rows = append(t.Rows, rows...)
	t.Notes = append(t.Notes,
		"paper: RMC1 1989/1989/31826; RMC2 1071/1071/137142; RMC3 546/546/10914")
	return []*Table{t}
}
