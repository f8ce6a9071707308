package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"rmssd"
)

// Multi-model configuration: `rmserve -models config.json` hosts several
// heterogeneous replicas on one server, each with its own devices, table
// budget and shard count. The file is a JSON object:
//
//	{"models": [
//	  {"name": "ctr",    "model": "RMC1", "tableMB": 256, "shards": 2, "weight": 2},
//	  {"name": "ranker", "model": "RMC3", "tableMB": 512, "shards": 1}
//	]}
//
// Unknown fields are rejected (strict decoding), so typos in a config file
// fail loudly instead of silently hosting a default.

// modelDecl declares one hosted model in the -models file.
type modelDecl struct {
	// Name is the serving name clients address (`model` field of /infer).
	// Defaults to the architecture name; must be unique across the file.
	Name string `json:"name"`
	// Model is the architecture: RMC1/RMC2/RMC3/NCF/WnD. Required.
	Model string `json:"model"`
	// TableMB is the embedding-table budget in MiB. Defaults to 256.
	TableMB int64 `json:"tableMB"`
	// Shards is the model's independent device count. Defaults to 1 in
	// multi-model mode (models already parallelise across each other).
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
	// MiB (0 = disabled). Hot vectors get served from controller DRAM;
	// predictions are byte-identical either way.
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
	ArrayDevices int `json:"arrayDevices"`
	// Partition selects the array's row partitioning: "range" (contiguous
	// blocks) or "hash" (modular striping). Empty means "range"; only valid
	// with ArrayDevices > 1.
	Partition string `json:"partition"`
}

// modelsConfig is the top-level shape of the -models file.
type modelsConfig struct {
	Models []modelDecl `json:"models"`
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
	if len(mc.Models) == 0 {
		return modelsConfig{}, fmt.Errorf("rmserve: models config declares no models")
	}
	seen := make(map[string]bool, len(mc.Models))
	for i := range mc.Models {
		d := &mc.Models[i]
		if d.Model == "" {
			return modelsConfig{}, fmt.Errorf("rmserve: models[%d]: missing architecture (\"model\")", i)
		}
		if d.Name == "" {
			d.Name = d.Model
		}
		if seen[d.Name] {
			return modelsConfig{}, fmt.Errorf("rmserve: models[%d]: duplicate name %q", i, d.Name)
		}
		seen[d.Name] = true
		if d.TableMB == 0 {
			d.TableMB = 256
		}
		if d.TableMB < 0 || d.TableMB > 1<<20 {
			return modelsConfig{}, fmt.Errorf("rmserve: models[%d] (%q): tableMB %d outside (0, 2^20]", i, d.Name, d.TableMB)
		}
		if d.Shards < 0 || d.MaxBatch < 0 || d.Queue < 0 || d.Weight < 0 {
			return modelsConfig{}, fmt.Errorf("rmserve: models[%d] (%q): negative shard/batch/queue/weight", i, d.Name)
		}
		if d.FaultRate < 0 || d.FaultRate >= 1 {
			return modelsConfig{}, fmt.Errorf("rmserve: models[%d] (%q): faultRate %v outside [0,1)", i, d.Name, d.FaultRate)
		}
		if d.ArrayDevices < 0 || d.ArrayDevices > rmssd.MaxArrayDevices {
			return modelsConfig{}, fmt.Errorf("rmserve: models[%d] (%q): arrayDevices %d outside [0,%d]", i, d.Name, d.ArrayDevices, rmssd.MaxArrayDevices)
		}
		switch d.Partition {
		case "", string(rmssd.PartitionRange), string(rmssd.PartitionHash):
		default:
			return modelsConfig{}, fmt.Errorf("rmserve: models[%d] (%q): unknown partition %q (want range or hash)", i, d.Name, d.Partition)
		}
		if d.Partition != "" && d.ArrayDevices <= 1 {
			return modelsConfig{}, fmt.Errorf("rmserve: models[%d] (%q): partition %q needs arrayDevices > 1", i, d.Name, d.Partition)
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

// build materialises the declared models as hosted models: each declaration
// resolves its architecture, sizes its tables for the budget and gets its
// own device shards.
func (mc modelsConfig) build(globalSeed uint64) ([]*hostedModel, error) {
	hosted := make([]*hostedModel, 0, len(mc.Models))
	for i, d := range mc.Models {
		cfg, err := rmssd.ModelByName(d.Model)
		if err != nil {
			return nil, fmt.Errorf("rmserve: models[%d] (%q): %w", i, d.Name, err)
		}
		cfg.RowsPerTable = cfg.RowsForBudget(d.TableMB << 20)
		seed := d.Seed
		if seed == 0 {
			seed = globalSeed
		}
		m, err := newHostedModel(d.Name, cfg, hostOptions{
			shards: d.Shards, seed: seed, maxBatch: d.MaxBatch, queue: d.Queue,
			weight: d.Weight, evCacheMB: d.EVCacheMB, dedup: d.Dedup,
			faultRate: d.FaultRate, faultSeed: d.FaultSeed,
			arrayDevices: d.ArrayDevices, partition: d.Partition,
		})
		if err != nil {
			return nil, err
		}
		hosted = append(hosted, m)
	}
	return hosted, nil
}
