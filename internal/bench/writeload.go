package bench

import (
	"fmt"

	"rmssd/internal/core"
	"rmssd/internal/engine"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
)

// WriteLoad extends the paper: it measures RM-SSD inference under
// concurrent embedding-table update writes on the page-mapped,
// garbage-collected FTL. The paper's evaluation is read-only (tables are
// written once); production recommenders refresh embeddings continuously,
// so this quantifies how much of the in-storage advantage survives a
// write-heavy device.
func WriteLoad(opts Options) []*Table {
	opts = opts.withDefaults()
	// Dynamic devices materialise every table page, so cap the scale.
	if opts.TableBytes > 256<<20 {
		opts.TableBytes = 256 << 20
	}
	cfg := scaledConfig("RMC1", opts)
	t := &Table{
		Title:  "Write-load extension: RM-SSD inference under table updates (RMC1, page-mapped FTL)",
		Header: []string{"Updates/batch", "QPS", "Slowdown", "Write amp (WAF)"},
	}

	gen := traceFor(cfg, opts)
	var baselineQPS float64
	for _, updates := range []int{0, 8, 32, 128} {
		r, err := core.NewFromModel(modelFor(cfg), core.Options{
			Geometry: geometryFor(cfg),
			Design:   engine.DesignSearched,
			Dynamic:  true,
		})
		if err != nil {
			t.AddRow(fmt.Sprintf("%d", updates), "error: "+err.Error(), "-", "-")
			continue
		}
		upd := tensor.NewRNG(opts.Seed + uint64(updates))
		page := make([]byte, r.Device().PageSize())
		var now sim.Time
		iters := opts.Iterations
		if iters > 30 {
			iters = 30
		}
		// Warm-up.
		for i := 0; i < iters/2; i++ {
			done, _, err := r.InferBatchTiming(now, gen.Batch(1))
			if err != nil {
				// Generator inputs on an unfaulted device cannot error.
				panic(fmt.Sprintf("bench: %v", err))
			}
			now = done
		}
		wafStart := r.Device().DynamicStats()
		start := now
		for i := 0; i < iters; i++ {
			// Updates land while the batch is in flight: overwrite
			// random table pages through the block path.
			for u := 0; u < updates; u++ {
				lpn := int64(upd.Intn(int(cfg.TableBytes() / int64(r.Device().PageSize()))))
				r.Device().WritePage(now, lpn, page)
			}
			done, _, err := r.InferBatchTiming(now, gen.Batch(1))
			if err != nil {
				panic(fmt.Sprintf("bench: %v", err))
			}
			now = done
		}
		elapsed := (now - start).Seconds()
		qps := float64(iters) / elapsed
		if updates == 0 {
			baselineQPS = qps
		}
		wafEnd := r.Device().DynamicStats()
		waf := 0.0
		if d := wafEnd.HostWrites - wafStart.HostWrites; d > 0 {
			waf = float64(d+wafEnd.GCCopies-wafStart.GCCopies) / float64(d)
		}
		slow := "-"
		if baselineQPS > 0 {
			slow = fmt.Sprintf("%.2fx", baselineQPS/qps)
		}
		t.AddRow(fmt.Sprintf("%d", updates), fmtQPS(qps), slow, fmt.Sprintf("%.2f", waf))
	}
	t.Notes = append(t.Notes,
		"updates and vector reads reserve the same flash dies and channels in",
		"time order, so both keep progressing and inference degrades gracefully")
	return []*Table{t}
}
