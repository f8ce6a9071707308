package main

import (
	"flag"
	"fmt"
	"runtime"

	"rmssd"
	"rmssd/internal/serving"
	"rmssd/internal/wire"
)

// bindModelFlags binds single-model mode's flags to the decl fields they
// set; the package comment tabulates flag and key names.
func bindModelFlags(fs *flag.FlagSet, d *wire.ModelDecl) {
	fs.StringVar(&d.Model, "model", "RMC1", "model to host (RMC1/RMC2/RMC3/NCF/WnD)")
	fs.Int64Var(&d.TableMB, "table-mb", 256, "embedding table budget in MiB")
	fs.IntVar(&d.Shards, "shards", runtime.GOMAXPROCS(0), "independent device shards (single-model mode)")
	fs.IntVar(&d.MaxBatch, "max-batch", 0, "coalesced device batch cap (0 = device NBatch; single-model mode)")
	fs.IntVar(&d.Queue, "queue", 256, "per-shard request queue depth (single-model mode)")
	fs.Int64Var(&d.EVCacheMB, "ev-cache-mb", 0, "device-DRAM EV cache budget per shard in MiB (0 = off; single-model mode)")
	fs.BoolVar(&d.Dedup, "dedup", false, "merge duplicate (table,row) lookups within a device batch (single-model mode)")
	fs.Float64Var(&d.FaultRate, "fault-rate", 0, "per-attempt flash ECC failure probability in [0,1) (0 = off; single-model mode)")
	fs.Uint64Var(&d.FaultSeed, "fault-seed", 1, "seed for deterministic fault injection (single-model mode)")
	fs.IntVar(&d.ArrayDevices, "array-devices", 0, "member SSDs per shard: >1 partitions each table across a device array (single-model mode)")
	fs.StringVar(&d.Partition, "partition", "", "array partition strategy: 'range' or 'hash' (needs -array-devices > 1; single-model mode)")
}

// serveModels hosts the declarations behind one router with the shared
// host budget (0 = unlimited).
func serveModels(mc wire.ModelsConfig, globalSeed uint64, budget int) (*server, error) {
	hosted, err := buildModels(mc, globalSeed)
	if err != nil {
		return nil, err
	}
	return newServer(newHosting(hosted), budget)
}

// buildModels validates the declarations (a no-op for a parsed file) and
// materialises them as hosted models, the first one the default: each
// resolves its architecture, sizes its tables for the budget, builds its
// weights once and gets its device shards over them from serving.NewShards
// (every shard, single device or array, reads the same read-only
// model.Model). The hosted decl records the resolved seed (a zero seed
// inherits globalSeed) and batch cap (a zero cap is the device NBatch).
func buildModels(mc wire.ModelsConfig, globalSeed uint64) ([]*hostedModel, error) {
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	hosted := make([]*hostedModel, 0, len(mc.Models))
	for i, d := range mc.Models {
		wrap := func(err error) error { return fmt.Errorf("rmserve: models[%d] (%q): %w", i, d.Name, err) }
		cfg, err := d.Config()
		if err != nil {
			return nil, wrap(err)
		}
		if d.Seed == 0 {
			d.Seed = globalSeed
		}
		weights, err := rmssd.BuildResidentModel(cfg)
		if err != nil {
			return nil, wrap(err)
		}
		shards, err := serving.NewShards(weights, d.Options(), d.Shards, d.Trace(cfg))
		if err != nil {
			return nil, wrap(err)
		}
		if d.MaxBatch == 0 {
			d.MaxBatch = shards[0].Device().NBatch()
		}
		m := &hostedModel{decl: d, cfg: cfg}
		for s, sh := range shards {
			m.shards = append(m.shards, &deviceShard{id: s, sh: sh})
		}
		hosted = append(hosted, m)
	}
	return hosted, nil
}
