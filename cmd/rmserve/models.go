package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"rmssd"
	"rmssd/internal/serving"
)

// Model declarations: every hosted model, in either mode, is one modelDecl.
// `rmserve -models config.json` decodes a list of them from a JSON object:
//
//	{"models": [
//	  {"name": "ctr",    "model": "RMC1", "tableMB": 256, "shards": 2, "weight": 2},
//	  {"name": "ranker", "model": "RMC3", "tableMB": 512, "shards": 1}
//	]}
//
// Unknown fields are rejected (strict decoding), so typos in a config file
// fail loudly instead of silently hosting a default. Single-model mode binds
// its flags straight into one decl (bindModelFlags), and both paths share
// validate and build.

// maxBudgetMB bounds every MiB budget before its MiB→byte shift, which would
// otherwise wrap.
const maxBudgetMB = 1 << 20

// modelDecl declares one hosted model: its -models entry, or single-model
// mode's flags.
type modelDecl struct {
	// Name is the serving name clients address (`model` field of /infer).
	// Defaults to the architecture name; must be unique across the file.
	Name string `json:"name"`
	// Model is the architecture: RMC1/RMC2/RMC3/NCF/WnD. Required.
	Model string `json:"model"`
	// TableMB is the embedding-table budget in MiB, in (0, 2^20]. Defaults
	// to 256.
	TableMB int64 `json:"tableMB"`
	// Shards is the model's independent device count. Defaults to 1 (the
	// -shards flag defaults to GOMAXPROCS instead).
	Shards int `json:"shards"`
	// MaxBatch caps the coalesced device batch; 0 means the device NBatch.
	MaxBatch int `json:"maxBatch"`
	// Queue bounds the per-shard submission queue. Defaults to 256.
	Queue int `json:"queue"`
	// Weight is the model's share of the shared host budget under WRR
	// admission. Defaults to 1.
	Weight int `json:"weight"`
	// Seed overrides the trace seed for this model's shards; 0 inherits
	// the global -seed flag.
	Seed uint64 `json:"seed"`
	// EVCacheMB budgets a device-DRAM embedding-vector cache per shard, in
	// MiB, in [0, 2^20] (0 = disabled). Hot vectors get served from
	// controller DRAM; predictions are byte-identical either way.
	EVCacheMB int64 `json:"evCacheMB"`
	// Dedup merges identical (table,row) lookups within one coalesced
	// device batch into a single vector read.
	Dedup bool `json:"dedup"`
	// FaultRate enables deterministic flash read-fault injection on this
	// model's devices: the per-attempt ECC failure probability, in [0,1).
	// 0 (the default) disables injection entirely.
	FaultRate float64 `json:"faultRate"`
	// FaultSeed seeds the fault sequence when FaultRate > 0.
	FaultSeed uint64 `json:"faultSeed"`
	// ArrayDevices > 1 backs each of this model's shards with a
	// multi-device array: the embedding tables are partitioned across that
	// many member SSDs. 0 or 1 hosts the whole model on one device.
	// Omitted from /info and /models when 0, like Partition when empty.
	ArrayDevices int `json:"arrayDevices,omitempty"`
	// Partition selects the array's row partitioning: "range" (contiguous
	// blocks, the default) or "hash" (modular striping); only valid with
	// ArrayDevices > 1.
	Partition string `json:"partition,omitempty"`
}

// bindModelFlags binds single-model mode's flags to the decl fields they
// set; the package comment tabulates flag and key names.
func bindModelFlags(fs *flag.FlagSet, d *modelDecl) {
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

// config resolves the declared architecture sized to its table budget.
func (d modelDecl) config() (rmssd.ModelConfig, error) {
	cfg, err := rmssd.ModelByName(d.Model)
	if err != nil {
		return rmssd.ModelConfig{}, err
	}
	cfg.RowsPerTable = cfg.RowsForBudget(d.TableMB << 20)
	return cfg, nil
}

// validate applies every default and checks every bound, in place. The
// fault rate and the array partition go through the library's own
// validators. It is idempotent: a validated decl validates to itself.
func (d *modelDecl) validate() error {
	if d.Model == "" {
		return errors.New(`missing architecture ("model")`)
	}
	if d.Name == "" {
		d.Name = d.Model
	}
	if d.TableMB == 0 {
		d.TableMB = 256
	}
	if d.TableMB < 0 || d.TableMB > maxBudgetMB {
		return fmt.Errorf("tableMB %d outside (0, 2^20]", d.TableMB)
	}
	if d.EVCacheMB < 0 || d.EVCacheMB > maxBudgetMB {
		return fmt.Errorf("evCacheMB %d outside [0, 2^20]", d.EVCacheMB)
	}
	if d.Shards < 0 || d.MaxBatch < 0 || d.Queue < 0 || d.Weight < 0 {
		return fmt.Errorf("negative shards/maxBatch/queue/weight %d/%d/%d/%d", d.Shards, d.MaxBatch, d.Queue, d.Weight)
	}
	cfg, err := d.config()
	if err != nil {
		return err
	}
	if err := (rmssd.FaultPlan{Rate: d.FaultRate}).Validate(); err != nil {
		return fmt.Errorf("faultRate: %w", err)
	}
	if d.Partition != "" && d.ArrayDevices <= 1 {
		return fmt.Errorf("partition %q needs arrayDevices > 1", d.Partition)
	}
	if d.ArrayDevices != 0 {
		p := rmssd.ArrayPartition{Strategy: rmssd.ArrayStrategy(d.Partition), Devices: d.ArrayDevices}
		if err := p.Validate(cfg.RowsPerTable); err != nil {
			return fmt.Errorf("arrayDevices %d: %w", d.ArrayDevices, err)
		}
	}
	if d.ArrayDevices > 1 && d.Partition == "" {
		d.Partition = string(rmssd.PartitionRange)
	}
	if d.Shards == 0 {
		d.Shards = 1
	}
	if d.Queue == 0 {
		d.Queue = 256
	}
	if d.Weight == 0 {
		d.Weight = 1
	}
	return nil
}

// modelsConfig is the top-level shape of the -models file.
type modelsConfig struct {
	Models []modelDecl `json:"models"`
}

// validate validates every decl in place and rejects duplicate names.
func (mc modelsConfig) validate() error {
	if len(mc.Models) == 0 {
		return errors.New("rmserve: models config declares no models")
	}
	seen := make(map[string]bool, len(mc.Models))
	for i := range mc.Models {
		d := &mc.Models[i]
		if err := d.validate(); err != nil {
			return fmt.Errorf("rmserve: models[%d] (%q): %w", i, d.Name, err)
		}
		if seen[d.Name] {
			return fmt.Errorf("rmserve: models[%d]: duplicate name %q", i, d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// parseModelsConfig strictly decodes and validates a -models document.
func parseModelsConfig(r io.Reader) (modelsConfig, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var mc modelsConfig
	if err := dec.Decode(&mc); err != nil {
		return modelsConfig{}, fmt.Errorf("rmserve: models config: %w", err)
	}
	// A second document in the stream is a malformed file, not extra input
	// to ignore.
	if dec.More() {
		return modelsConfig{}, fmt.Errorf("rmserve: models config: trailing data after document")
	}
	if err := mc.validate(); err != nil {
		return modelsConfig{}, err
	}
	return mc, nil
}

// loadModelsConfig reads and validates a -models file.
func loadModelsConfig(path string) (modelsConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return modelsConfig{}, err
	}
	defer f.Close() // read-only file; the parse result is what matters
	return parseModelsConfig(f)
}

// serve hosts the declarations behind one router with the shared host
// budget (0 = unlimited).
func (mc modelsConfig) serve(globalSeed uint64, budget int) (*server, error) {
	hosted, err := mc.build(globalSeed)
	if err != nil {
		return nil, err
	}
	return newServer(newHosting(hosted), budget)
}

// build validates the declarations (a no-op for a parsed file) and
// materialises them as hosted models, the first one the default: each
// resolves its architecture, sizes its tables for the budget, builds its
// weights once and gets its device shards over them from serving.NewShards
// (every shard, single device or array, reads the same read-only
// model.Model). The hosted decl records the resolved seed (a zero seed
// inherits globalSeed) and batch cap (a zero cap is the device NBatch).
func (mc modelsConfig) build(globalSeed uint64) ([]*hostedModel, error) {
	if err := mc.validate(); err != nil {
		return nil, err
	}
	hosted := make([]*hostedModel, 0, len(mc.Models))
	for i, d := range mc.Models {
		wrap := func(err error) error { return fmt.Errorf("rmserve: models[%d] (%q): %w", i, d.Name, err) }
		cfg, err := d.config()
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
		shards, err := serving.NewShards(weights, rmssd.DeviceOptions{
			EVCacheBytes: d.EVCacheMB << 20,
			DedupLookups: d.Dedup,
			FaultPlan:    rmssd.FaultPlan{Rate: d.FaultRate, Seed: d.FaultSeed},
			ArrayDevices: d.ArrayDevices,
			Partition:    d.Partition,
		}, d.Shards, rmssd.TraceConfig{
			Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: d.Seed,
		})
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
