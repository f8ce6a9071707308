package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"rmssd/internal/array"
	"rmssd/internal/core"
	"rmssd/internal/flash"
	"rmssd/internal/model"
	"rmssd/internal/trace"
)

// Model declarations: every hosted model, in either of rmserve's modes, is
// one ModelDecl. `rmserve -models config.json` decodes a list of them from
// a JSON object:
//
//	{"models": [
//	  {"name": "ctr",    "model": "RMC1", "tableMB": 256, "shards": 2, "weight": 2},
//	  {"name": "ranker", "model": "RMC3", "tableMB": 512, "shards": 1}
//	]}
//
// Unknown fields are rejected (strict decoding), so typos in a config file
// fail loudly instead of silently hosting a default. Single-model mode binds
// its flags straight into one decl, and both paths share Validate.

// maxBudgetMB bounds every MiB budget before its MiB→byte shift, which would
// otherwise wrap.
const maxBudgetMB = 1 << 20

// ModelDecl declares one hosted model: a -models entry, or single-model
// mode's flags. /info and /models render the validated decl back under the
// same keys.
type ModelDecl struct {
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

// Config resolves the declared architecture sized to its table budget.
func (d ModelDecl) Config() (model.Config, error) {
	cfg, err := model.ConfigByName(d.Model)
	if err != nil {
		return model.Config{}, err
	}
	cfg.RowsPerTable = cfg.RowsForBudget(d.TableMB << 20)
	return cfg, nil
}

// Options maps the declaration onto the construction options every one of
// its shards shares; serving.NewShards derives each shard's fault seed.
func (d ModelDecl) Options() core.Options {
	return core.Options{
		EVCacheBytes: d.EVCacheMB << 20,
		DedupLookups: d.Dedup,
		FaultPlan:    flash.FaultPlan{Rate: d.FaultRate, Seed: d.FaultSeed},
		ArrayDevices: d.ArrayDevices,
		Partition:    d.Partition,
	}
}

// Trace is the locality-model trace config for cfg's tables, drawn from
// the declared seed; serving.NewShards derives each shard's stream.
func (d ModelDecl) Trace(cfg model.Config) trace.Config {
	return trace.Config{Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: d.Seed}
}

// Validate applies every default and checks every bound, in place. The
// fault rate and the array partition go through the library's own
// validators. It is idempotent: a validated decl validates to itself.
func (d *ModelDecl) Validate() error {
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
	cfg, err := d.Config()
	if err != nil {
		return err
	}
	if err := (flash.FaultPlan{Rate: d.FaultRate}).Validate(); err != nil {
		return fmt.Errorf("faultRate: %w", err)
	}
	if d.Partition != "" && d.ArrayDevices <= 1 {
		return fmt.Errorf("partition %q needs arrayDevices > 1", d.Partition)
	}
	if d.ArrayDevices != 0 {
		p := array.Partition{Strategy: array.Strategy(d.Partition), Devices: d.ArrayDevices}
		if err := p.Validate(cfg.RowsPerTable); err != nil {
			return fmt.Errorf("arrayDevices %d: %w", d.ArrayDevices, err)
		}
	}
	if d.ArrayDevices > 1 && d.Partition == "" {
		d.Partition = string(array.StrategyRange)
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

// ModelsConfig is the top-level shape of the -models file.
type ModelsConfig struct {
	Models []ModelDecl `json:"models"`
}

// Validate validates every decl in place and rejects duplicate names.
func (mc ModelsConfig) Validate() error {
	if len(mc.Models) == 0 {
		return errors.New("rmserve: models config declares no models")
	}
	seen := make(map[string]bool, len(mc.Models))
	for i := range mc.Models {
		d := &mc.Models[i]
		if err := d.Validate(); err != nil {
			return fmt.Errorf("rmserve: models[%d] (%q): %w", i, d.Name, err)
		}
		if seen[d.Name] {
			return fmt.Errorf("rmserve: models[%d]: duplicate name %q", i, d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// ParseModelsConfig strictly decodes and validates a -models document.
func ParseModelsConfig(r io.Reader) (ModelsConfig, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var mc ModelsConfig
	if err := dec.Decode(&mc); err != nil {
		return ModelsConfig{}, fmt.Errorf("rmserve: models config: %w", err)
	}
	// A second document in the stream is a malformed file, not extra input
	// to ignore.
	if dec.More() {
		return ModelsConfig{}, fmt.Errorf("rmserve: models config: trailing data after document")
	}
	if err := mc.Validate(); err != nil {
		return ModelsConfig{}, err
	}
	return mc, nil
}

// LoadModelsConfig reads and validates a -models file.
func LoadModelsConfig(path string) (ModelsConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return ModelsConfig{}, err
	}
	defer f.Close() // read-only file; the parse result is what matters
	return ParseModelsConfig(f)
}
