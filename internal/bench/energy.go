package bench

import (
	"time"

	"rmssd/internal/baseline"
	"rmssd/internal/engine"
	"rmssd/internal/power"
)

// EnergyStudy extends the paper: first-order energy per inference for the
// main deployments, quantifying the power motivation of Section III
// (in-storage computing must be resource- and power-efficient). Host CPU
// seconds dominate the host-side systems; RM-SSD trades them for flash
// page senses and a few FPGA millijoules.
func EnergyStudy(opts Options) []*Table {
	opts = opts.withDefaults()
	t := &Table{
		Title:  "Energy extension: energy per inference",
		Header: []string{"Model", "System", "Energy/inference", "Host CPU", "Flash+bus", "PCIe", "FPGA"},
	}
	for _, name := range []string{"RMC1", "RMC3"} {
		cfg := scaledConfig(name, opts)
		m := modelFor(cfg)
		lookups := int64(cfg.Tables) * int64(cfg.Lookups)
		evSize := int64(cfg.EVSize())
		macs := int64(cfg.MLPWeightBytes() / 4)

		addRow := func(sys string, p power.Profile) {
			c := p.Components()
			t.AddRow(name, sys, p.Total().String(), c.HostCPU.String(),
				(c.PageSense + c.FlashBus).String(), c.PCIe.String(), (c.FPGAStatic + c.MACs).String())
		}

		// DRAM: everything on the host.
		dram := baseline.NewDRAM(m)
		gen := traceFor(cfg, opts)
		_, bdD := dram.InferBatchTiming(0, gen.Batch(1))
		addRow("DRAM", power.Profile{
			HostCPUTime:   bdD.Total(),
			HostDRAMBytes: lookups*evSize + cfg.MLPWeightBytes(),
		})

		// SSD-S: host CPU active outside the device wait; page-granular
		// flash traffic for every cache miss.
		ssds := baseline.NewSSDS(envFor(cfg))
		now, _ := iterate(ssds, gen, 1, opts.WarmupIterations, 0)
		ssds.Host().ResetStats()
		_, bdS := iterate(ssds, gen, 1, opts.Iterations, now)
		iters := int64(opts.Iterations)
		misses := ssds.Host().Stats().DeviceReads / iters
		ps := int64(ssds.Host().FS().PageSize())
		addRow("SSD-S", power.Profile{
			HostCPUTime:     (bdS.Total() - bdS.EmbSSD) / time.Duration(iters),
			DeviceTime:      bdS.Total() / time.Duration(iters),
			FlashPageReads:  misses,
			FlashBytesMoved: misses * ps,
			PCIeBytes:       misses * ps,
			HostDRAMBytes:   lookups*evSize + cfg.MLPWeightBytes(),
		})

		// RM-SSD: the host only sends inputs and reads 64 bytes; every
		// lookup senses one page but moves only a vector over the bus.
		r := rmssdFor(cfg, engine.DesignSearched)
		nb := r.NBatch()
		interval := time.Duration(float64(time.Second) / r.SteadyStateQPS(nb) * float64(nb))
		addRow("RM-SSD", power.Profile{
			HostCPUTime:     50 * time.Microsecond, // send + poll + read
			DeviceTime:      interval / time.Duration(nb),
			FPGAActive:      interval / time.Duration(nb),
			FlashPageReads:  lookups,
			FlashBytesMoved: lookups * evSize,
			PCIeBytes:       r.HostReadBytesPerBatch(nb)/int64(nb) + int64(cfg.Tables*cfg.Lookups*8),
			MACs:            macs,
		})
	}
	t.Notes = append(t.Notes,
		"host CPU seconds dominate the host-side systems; RM-SSD senses more flash",
		"pages (no cache) but eliminates the CPU and PCIe energy almost entirely")
	return []*Table{t}
}
