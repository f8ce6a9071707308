package main

import (
	"fmt"
	"time"

	"rmssd"
)

// modelDecl is one hosted model. It is written verbatim as an entry of the
// rmserve -models file the live leg serves, and the replay leg builds its
// devices from the same values, so the two legs cannot drift apart.
type modelDecl struct {
	Name         string  `json:"name"`
	Model        string  `json:"model"`
	TableMB      int64   `json:"tableMB"`
	Shards       int     `json:"shards"`
	MaxBatch     int     `json:"maxBatch,omitempty"` // 0 = device NBatch
	Weight       int     `json:"weight"`
	EVCacheMB    int64   `json:"evCacheMB,omitempty"`
	Dedup        bool    `json:"dedup,omitempty"`
	FaultRate    float64 `json:"faultRate,omitempty"`
	FaultSeed    uint64  `json:"faultSeed,omitempty"`
	ArrayDevices int     `json:"arrayDevices,omitempty"`
	Partition    string  `json:"partition,omitempty"`
}

// config resolves the declaration's architecture sized to its table budget,
// exactly as rmserve does.
func (d modelDecl) config() (rmssd.ModelConfig, error) {
	cfg, err := rmssd.ModelByName(d.Model)
	if err != nil {
		return rmssd.ModelConfig{}, fmt.Errorf("model %q: %w", d.Name, err)
	}
	cfg.RowsPerTable = cfg.RowsForBudget(d.TableMB << 20)
	return cfg, nil
}

// deviceOptions mirrors rmserve's per-shard device options for shard i
// (including its per-shard fault-seed offset); the replay leg always runs
// the exact sequential lookup path.
func (d modelDecl) deviceOptions(shard int) rmssd.DeviceOptions {
	return rmssd.DeviceOptions{
		Parallel:     1,
		EVCacheBytes: d.EVCacheMB << 20,
		DedupLookups: d.Dedup,
		FaultPlan:    rmssd.FaultPlan{Rate: d.FaultRate, Seed: d.FaultSeed + uint64(shard)*0x9e37},
		ArrayDevices: d.ArrayDevices,
		Partition:    d.Partition,
	}
}

// workload is one named traffic mix. Every rate, SLO and request count is
// frozen here from runs at the default seed on the reference host (2 CPUs),
// so a later change is measured against the same offered load.
type workload struct {
	name string
	why  string // one line; BENCHMARK.json carries the same text

	models     []modelDecl // models[0] is the primary: sim_p50/p99 are its
	hostBudget int         // rmserve -host-budget (0 = unlimited)
	reqInfer   int         // inferences per request
	locality   float64     // Fig. 14 locality K of the generated lookups
	slo        time.Duration

	// requests is the number of distinct generated requests: both replay
	// legs serve all of them and the live leg cycles through them.
	requests int
	// satRate and loadRate are the replay legs' offered loads in requests
	// per simulated second per model: at least 3x every model's and about
	// 0.45x the primary model's simulated capacity.
	satRate, loadRate float64
	// liveRate is the live leg's open-loop offered load in requests per
	// wall second: about a quarter of the closed-loop capacity with two
	// connections, so no backlog builds even in the minutes when a shared
	// host runs two to three times slower.
	liveRate float64
	// predCheck is the load leg's prediction checksum at seed 1.
	predCheck uint64
}

// defaultSeed is the seed predCheck is pinned at.
const defaultSeed = 1

var workloads = []workload{
	{
		name: "rmc1-cold",
		why:  "embedding-dominated: RMC1 at K=2 with cache, dedup and coalescing off, so lookup, flash timing, content synthesis and JSON decode do the work",
		models: []modelDecl{
			{Name: "RMC1", Model: "RMC1", TableMB: 64, Shards: 2, MaxBatch: 1, Weight: 1},
		},
		reqInfer: 1, locality: 2, slo: 10 * time.Millisecond,
		requests: 2000,
		satRate:  6100, loadRate: 915,
		liveRate:  340,
		predCheck: 0x2c30a54edc872ceb,
	},
	{
		name: "rmc3-mlp",
		why:  "MLP-dominated: RMC3 coalesced up to batch 4 at default locality, so host MatVec and the bottom/top MLP stages dominate while lookups stay light",
		models: []modelDecl{
			{Name: "RMC3", Model: "RMC3", TableMB: 64, Shards: 2, MaxBatch: 4, Weight: 1},
		},
		reqInfer: 1, locality: 0.3, slo: 50 * time.Millisecond,
		requests: 1000,
		satRate:  12900, loadRate: 1935,
		liveRate:  90,
		predCheck: 0x85df40a82464d37b,
	},
	{
		name: "rmc1-hot-cached",
		why:  "same lookup layer used differently: RMC1 at K=0 with an 8 MiB EV cache per shard, dedup and batch 8, so cache hits and dedup replace flash reads",
		models: []modelDecl{
			{Name: "RMC1", Model: "RMC1", TableMB: 64, Shards: 2, MaxBatch: 8, Weight: 1, EVCacheMB: 8, Dedup: true},
		},
		// The tail of batch-8 service is 16-23 ms on the reference host at
		// any offered rate, so a 10 ms SLO would make goodput count noise.
		reqInfer: 2, locality: 0, slo: 25 * time.Millisecond,
		requests: 2000,
		satRate:  16200, loadRate: 2430,
		liveRate:  240,
		predCheck: 0x45ad35a41a800957,
	},
	{
		name: "mix-array-router",
		why:  "host-path-dominated: a 2-device RMC1 hash array with ECC retries plus WnD and NCF behind a host budget of 1, so HTTP, router admission and scatter/gather do the work",
		models: []modelDecl{
			{Name: "ctr", Model: "RMC1", TableMB: 64, Shards: 1, Weight: 2,
				FaultRate: 0.01, FaultSeed: 1, ArrayDevices: 2, Partition: "hash"},
			{Name: "wide", Model: "WnD", TableMB: 64, Shards: 1, Weight: 1},
			{Name: "ncf", Model: "NCF", TableMB: 64, Shards: 1, Weight: 1},
		},
		hostBudget: 1,
		reqInfer:   1, locality: 0.3, slo: 10 * time.Millisecond,
		requests: 4000,
		satRate:  154000, loadRate: 680,
		liveRate:  300,
		predCheck: 0x76c9474b83f21bf6,
	},
}

// findWorkload resolves a workload by name.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
