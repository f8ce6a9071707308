package bench

import (
	"fmt"
	"time"

	"rmssd/internal/baseline"
	"rmssd/internal/engine"
	"rmssd/internal/model"
)

// namedSystem is a deferred System construction: the Fig. 10/11 comparison
// set is expressed as constructors so each parallel cell builds only the
// system it measures (construction over a fresh device is part of the cell,
// keeping cells fully independent).
type namedSystem struct {
	name  string
	build func(cfg model.Config) baseline.System
}

// slsSystemSet is the Fig. 10/11 comparison set, in paper order.
func slsSystemSet() []namedSystem {
	return []namedSystem{
		{"SSD-S", func(cfg model.Config) baseline.System { return baseline.NewSSDS(envFor(cfg)) }},
		{"EMB-MMIO", func(cfg model.Config) baseline.System { return baseline.NewEmbMMIO(envFor(cfg)) }},
		{"EMB-PageSum", func(cfg model.Config) baseline.System { return baseline.NewEmbPageSum(envFor(cfg)) }},
		{"EMB-VectorSum", func(cfg model.Config) baseline.System { return baseline.NewEmbVectorSum(envFor(cfg)) }},
		{"DRAM", func(cfg model.Config) baseline.System { return baseline.NewDRAM(modelFor(cfg)) }},
	}
}

// measureSum runs warm-up plus measured single inferences of a system and
// returns the summed stage breakdown over the measured ones.
func measureSum(sys baseline.System, cfg model.Config, opts Options) baseline.Breakdown {
	gen := traceFor(cfg, opts)
	now, _ := iterate(sys, gen, 1, opts.WarmupIterations, 0)
	_, sum := iterate(sys, gen, 1, opts.Iterations, now)
	return sum
}

// Fig10 reproduces the standalone SLS-operator study: (a) execution time of
// the embedding layer per implementation on the RMC1 configuration, and
// (b) sensitivity to the number of lookups per table.
func Fig10(opts Options) []*Table {
	opts = opts.withDefaults()
	cfg := scaledConfig("RMC1", opts)
	systems := slsSystemSet()

	a := &Table{
		Title:  "Fig. 10(a): SLS operator execution time, 1K ops (seconds)",
		Header: []string{"System", "Time (s)", "Speedup vs SSD-S"},
	}
	// One cell per system; the SSD-S baseline row is resolved by name when
	// assembling, so the cells themselves stay order-independent.
	type aCell struct {
		name string
		sec  float64
	}
	aCells := make([]aCell, len(systems))
	runIndexed(opts.Parallel, len(systems), func(i int) {
		sys := systems[i].build(cfg)
		emb := measureSum(sys, cfg, opts).Emb()
		aCells[i] = aCell{sys.Name(), emb.Seconds() * 1000 / float64(opts.Iterations)}
	})
	var base float64
	for _, c := range aCells {
		if c.name == "SSD-S" {
			base = c.sec
		}
	}
	for _, c := range aCells {
		speed := "-"
		if base > 0 {
			speed = fmt.Sprintf("%.1fx", base/c.sec)
		}
		a.AddRow(c.name, fmtSeconds(c.sec), speed)
	}
	a.Notes = append(a.Notes, "paper: EMB-VectorSum outperforms SSD-S by ~16x on the SLS operator")

	b := &Table{
		Title:  "Fig. 10(b): SLS sensitivity to lookups per table (1K ops, seconds)",
		Header: []string{"Lookups", "SSD-S", "EMB-MMIO", "EMB-PageSum", "EMB-VectorSum", "DRAM"},
	}
	lookups := []int{20, 40, 60, 80, 100, 120}
	grid := make([][]string, len(lookups))
	for i := range grid {
		grid[i] = make([]string, len(systems))
	}
	runIndexed(opts.Parallel, len(lookups)*len(systems), func(idx int) {
		li, si := idx/len(systems), idx%len(systems)
		c := cfg
		c.Lookups = lookups[li]
		sys := systems[si].build(c)
		emb := measureSum(sys, c, opts).Emb()
		grid[li][si] = fmtSeconds(emb.Seconds() * 1000 / float64(opts.Iterations))
	})
	for li, cells := range grid {
		b.AddRow(append([]string{fmt.Sprintf("%d", lookups[li])}, cells...)...)
	}
	b.Notes = append(b.Notes, "paper: execution time increases linearly as lookups scale up")
	return []*Table{a, b}
}

// Fig11 reproduces the end-to-end comparison of embedding-lookup
// implementations with the emb/mlp/others breakdown.
func Fig11(opts Options) []*Table {
	opts = opts.withDefaults()
	t := &Table{
		Title:  "Fig. 11: end-to-end performance, 1K inferences (seconds)",
		Header: []string{"Model", "System", "Total", "emb", "mlp", "others"},
	}
	models := []string{"RMC1", "RMC2", "RMC3"}
	systems := slsSystemSet()
	rows := make([][]string, len(models)*len(systems))
	runIndexed(opts.Parallel, len(rows), func(idx int) {
		mi, si := idx/len(systems), idx%len(systems)
		cfg := scaledConfig(models[mi], opts)
		sys := systems[si].build(cfg)
		sum := measureSum(sys, cfg, opts)
		scale := 1000.0 / float64(opts.Iterations)
		rows[idx] = []string{models[mi], sys.Name(),
			fmtSeconds(sum.Total().Seconds() * scale),
			fmtSeconds(sum.Emb().Seconds() * scale),
			fmtSeconds(sum.MLP().Seconds() * scale),
			fmtSeconds(sum.Other.Seconds() * scale)}
	})
	t.Rows = append(t.Rows, rows...)
	t.Notes = append(t.Notes,
		"paper (total s): RMC1 23.5/19.1/4.0/2.2/1.4; RMC2 135/81/7.9/3.8/18.5?; RMC3 9.9/5.9/2.2/1.6/2.7",
		"key claims: EMB-VectorSum up to 17x over SSD-S; beats DRAM on RMC3's embedding layer")
	return []*Table{t}
}

// Fig13 reproduces the latency comparison at batch size 1.
func Fig13(opts Options) []*Table {
	opts = opts.withDefaults()
	t := &Table{
		Title:  "Fig. 13: latency of 1K inferences (seconds)",
		Header: []string{"Model", "SSD-S", "RecSSD", "EMB-VectorSum", "RM-SSD", "DRAM"},
	}
	models := []string{"RMC1", "RMC2", "RMC3"}
	// Columns 0-2 are measured host systems, 3 is the RM-SSD analytic
	// latency, 4 is a single DRAM inference; each (model, column) is one
	// independent cell over its own freshly built system.
	measured := []func(cfg model.Config) baseline.System{
		func(cfg model.Config) baseline.System { return baseline.NewSSDS(envFor(cfg)) },
		func(cfg model.Config) baseline.System { return recssdFor(cfg, opts) },
		func(cfg model.Config) baseline.System { return baseline.NewEmbVectorSum(envFor(cfg)) },
	}
	const cols = 5
	grid := make([][]string, len(models))
	for i := range grid {
		grid[i] = make([]string, cols)
	}
	runIndexed(opts.Parallel, len(models)*cols, func(idx int) {
		mi, ci := idx/cols, idx%cols
		cfg := scaledConfig(models[mi], opts)
		switch {
		case ci < len(measured):
			sys := measured[ci](cfg)
			gen := traceFor(cfg, opts)
			start, _ := iterate(sys, gen, 1, opts.WarmupIterations, 0)
			end, _ := iterate(sys, gen, 1, opts.Iterations, start)
			grid[mi][ci] = fmtSeconds(time.Duration(end-start).Seconds() * 1000 / float64(opts.Iterations))
		case ci == 3:
			rm := rmssdFor(cfg, engine.DesignSearched)
			grid[mi][ci] = fmtSeconds(rm.Latency(1).Seconds() * 1000)
		default:
			dram := baseline.NewDRAM(modelFor(cfg))
			done, _ := dram.InferBatchTiming(0, traceFor(cfg, opts).Batch(1))
			grid[mi][ci] = fmtSeconds(time.Duration(done).Seconds() * 1000)
		}
	})
	for mi, cells := range grid {
		t.AddRow(append([]string{models[mi]}, cells...)...)
	}
	t.Notes = append(t.Notes,
		"paper: RM-SSD cuts latency by up to 97% vs SSD-S and up to 64% vs RecSSD")
	return []*Table{t}
}
