package bench

import (
	"fmt"

	"rmssd/internal/baseline"
	"rmssd/internal/model"
)

// scaleTo1K converts a summed breakdown over iters iterations to the
// paper's 1K-iteration reporting unit, in seconds.
func scaleTo1K(total baseline.Breakdown, iters int) float64 {
	return total.Total().Seconds() * 1000 / float64(iters)
}

// Fig2 reproduces the naive-deployment study: execution time of 1K batch
// iterations for SSD-S, SSD-M and DRAM at batch sizes 1, 32 and 64, plus
// the per-stage breakdown percentages of Fig. 2(d)-(f).
func Fig2(opts Options) []*Table {
	opts = opts.withDefaults()
	timeTab := &Table{
		Title:  "Fig. 2(a-c): execution time of 1K inferences (seconds)",
		Header: []string{"Model", "Batch", "SSD-S", "SSD-M", "DRAM"},
	}
	bdTab := &Table{
		Title:  "Fig. 2(d-f): execution time breakdown (%)",
		Header: []string{"Model", "Batch", "System", "top-mlp", "bot-mlp", "concat", "emb-op", "emb-fs", "emb-ssd", "other"},
	}
	models := []string{"RMC1", "RMC2", "RMC3"}
	batches := []int{1, 32, 64}
	systems := []struct {
		build func(cfg model.Config) baseline.System
	}{
		{func(cfg model.Config) baseline.System { return baseline.NewSSDS(envFor(cfg)) }},
		{func(cfg model.Config) baseline.System { return baseline.NewSSDM(envFor(cfg)) }},
		{func(cfg model.Config) baseline.System { return baseline.NewDRAM(modelFor(cfg)) }},
	}
	// One cell per (model, batch, system): each builds its own system on a
	// fresh device, so the 27 cells are independent and the two tables are
	// assembled by index afterwards.
	type f2Cell struct {
		time  string
		bdRow []string
	}
	grid := make([]f2Cell, len(models)*len(batches)*len(systems))
	runIndexed(opts.Parallel, len(grid), func(idx int) {
		si := idx % len(systems)
		bi := (idx / len(systems)) % len(batches)
		mi := idx / (len(systems) * len(batches))
		name, batch := models[mi], batches[bi]
		cfg := scaledConfig(name, opts)
		iters := opts.Iterations
		if batch > 1 && iters > 20 {
			iters = 20
		}
		warm := iters / 2
		sys := systems[si].build(cfg)
		gen := traceFor(cfg, opts)
		now, _ := iterate(sys, gen, batch, warm, 0)
		_, total := iterate(sys, gen, batch, iters, now)
		tt := float64(total.Total())
		pct := func(d float64) string { return fmt.Sprintf("%.1f", 100*d/tt) }
		grid[idx] = f2Cell{
			time: fmtSeconds(scaleTo1K(total, iters)),
			bdRow: []string{name, fmt.Sprintf("%d", batch), sys.Name(),
				pct(float64(total.TopMLP)), pct(float64(total.BotMLP)), pct(float64(total.Concat)),
				pct(float64(total.EmbOp)), pct(float64(total.EmbFS)), pct(float64(total.EmbSSD)),
				pct(float64(total.Other))},
		}
	})
	for mi, name := range models {
		for bi, batch := range batches {
			row := []string{name, fmt.Sprintf("%d", batch)}
			for si := range systems {
				c := grid[(mi*len(batches)+bi)*len(systems)+si]
				row = append(row, c.time)
				bdTab.Rows = append(bdTab.Rows, c.bdRow)
			}
			timeTab.AddRow(row...)
		}
	}
	timeTab.Notes = append(timeTab.Notes,
		"paper (s): RMC1 batch1 29.2/22.1/1.4, batch32 841/634/1.8, batch64 1687/1282/2.2;",
		"RMC2 batch1 135/108/3.8; RMC3 batch1 9.9/7.7/2.7 — shapes, not absolutes, are the target")
	return []*Table{timeTab, bdTab}
}

// Fig3 reproduces the read-amplification study: I/O traffic relative to a
// byte-addressable ideal device for SSD-S and SSD-M.
func Fig3(opts Options) []*Table {
	opts = opts.withDefaults()
	t := &Table{
		Title:  "Fig. 3: I/O traffic amplification vs byte-addressable ideal",
		Header: []string{"Model", "Ideal", "SSD-M", "SSD-S"},
	}
	for _, name := range []string{"RMC1", "RMC2", "RMC3"} {
		cfg := scaledConfig(name, opts)
		amp := func(sys *baseline.NaiveSSD) string {
			gen := traceFor(cfg, opts)
			now, _ := iterate(sys, gen, 1, opts.WarmupIterations, 0)
			sys.Host().ResetStats()
			iterate(sys, gen, 1, opts.Iterations, now)
			return fmt.Sprintf("%.1f", sys.Host().Stats().Amplification())
		}
		ssdm := amp(baseline.NewSSDM(envFor(cfg)))
		ssds := amp(baseline.NewSSDS(envFor(cfg)))
		t.AddRow(name, "1.0", ssdm, ssds)
	}
	t.Notes = append(t.Notes,
		"paper: RMC1 24.9/25.5, RMC2 17.3/17.9, RMC3 26.8/27.3 (SSD-M/SSD-S)",
		"amplification ceiling is PageSize/EVsize: 32x for dim-32 models, 16x for dim-64")
	return []*Table{t}
}
