// Package baseline implements every comparator system of the paper's
// evaluation, all functionally equivalent (same float32 CTR predictions)
// but with the distinct data paths and timing behaviours the paper
// measures:
//
//	DRAM           — the ideal in-memory deployment (no SSD involved).
//	SSD-S / SSD-M  — naive SSD deployment: vectors read through the file
//	                 system and a DRAM-budgeted page cache (1/4 and 1/2 of
//	                 the embedding-table bytes respectively).
//	EMB-MMIO       — page-granular reads fetched to userspace through the
//	                 MMIO window, bypassing the kernel I/O stack; pooling
//	                 on the host CPU.
//	EMB-PageSum    — page-granular reads kept inside the SSD; pooling on
//	                 the device FPGA; only pooled vectors cross PCIe.
//	EMB-VectorSum  — the RM-SSD Embedding Lookup Engine alone (vector-
//	                 granular in-SSD reads + pooling); MLP on the host.
//	RecSSD         — Wilkening et al.'s near-data design re-implemented on
//	                 the same simulated SSD: page-granular in-SSD pooling
//	                 of cache-missing vectors plus a host-side vector
//	                 cache whose partial results merge on the host.
//
// The full RM-SSD and RM-SSD-Naive live in internal/core; this package's
// systems all keep at least the MLP on the host CPU.
package baseline

import (
	"fmt"
	"time"

	"rmssd/internal/embedding"
	"rmssd/internal/engine"
	"rmssd/internal/flash"
	"rmssd/internal/hostio"
	"rmssd/internal/model"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/ssd"
	"rmssd/internal/tensor"
)

// Breakdown is the Fig. 2 / Fig. 11 stage decomposition of one inference.
type Breakdown struct {
	EmbSSD time.Duration // device time of embedding reads (emb-ssd)
	EmbFS  time.Duration // host I/O-stack time (emb-fs)
	EmbOp  time.Duration // host pooling / merge compute (emb-op)
	Concat time.Duration // feature interaction
	BotMLP time.Duration
	TopMLP time.Duration
	Other  time.Duration // framework overhead
}

// Emb returns the total embedding-layer time.
func (b Breakdown) Emb() time.Duration { return b.EmbSSD + b.EmbFS + b.EmbOp }

// MLP returns the total MLP-layer time (including interaction).
func (b Breakdown) MLP() time.Duration { return b.BotMLP + b.TopMLP + b.Concat }

// Total returns the serial per-inference time.
func (b Breakdown) Total() time.Duration { return b.Emb() + b.MLP() + b.Other }

// Add accumulates another breakdown.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		EmbSSD: b.EmbSSD + o.EmbSSD,
		EmbFS:  b.EmbFS + o.EmbFS,
		EmbOp:  b.EmbOp + o.EmbOp,
		Concat: b.Concat + o.Concat,
		BotMLP: b.BotMLP + o.BotMLP,
		TopMLP: b.TopMLP + o.TopMLP,
		Other:  b.Other + o.Other,
	}
}

// System is a complete recommendation-inference deployment. It runs whole
// batch iterations the way the host frameworks do: per-inference I/O, but
// host compute (SLS, MLPs, framework dispatch) amortised across the batch,
// which is what Figs. 2 and 12 measure. A single inference is a batch of
// one, which is what Figs. 10, 11 and 13 measure.
type System interface {
	// Name identifies the system as the paper labels it.
	Name() string
	// Model returns the hosted model.
	Model() *model.Model
	// InferBatch runs one batch iteration functionally and timed,
	// returning one CTR prediction per inference, the completion time and
	// the breakdown summed over the batch.
	InferBatch(at sim.Time, denses []tensor.Vector, sparses [][][]int64) ([]float32, sim.Time, Breakdown)
	// InferBatchTiming is InferBatch without materialising values.
	InferBatchTiming(at sim.Time, sparses [][][]int64) (sim.Time, Breakdown)
}

// Env bundles the shared substrate of the SSD-backed baselines: one model's
// tables laid out on one simulated device.
type Env struct {
	M     *model.Model
	Dev   *ssd.Device
	FS    *hostio.FS
	Store *embedding.Store
}

// NewEnv lays the model's tables out on a fresh device.
func NewEnv(cfg model.Config, geo flash.Geometry) (*Env, error) {
	m, err := model.Build(cfg)
	if err != nil {
		return nil, err
	}
	return NewEnvFromModel(m, geo)
}

// NewEnvFromModel is NewEnv around an already-built model, which the
// environment reads and never writes, so any number of environments may
// share one.
func NewEnvFromModel(m *model.Model, geo flash.Geometry) (*Env, error) {
	if m == nil {
		return nil, fmt.Errorf("baseline: nil model")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	dev, err := ssd.New(geo)
	if err != nil {
		return nil, err
	}
	fs := hostio.NewFS(dev, 1<<20)
	store, err := embedding.NewStore(m, fs)
	if err != nil {
		return nil, err
	}
	return &Env{M: m, Dev: dev, FS: fs, Store: store}, nil
}

// MustNewEnv is NewEnv, panicking on error.
func MustNewEnv(cfg model.Config, geo flash.Geometry) *Env {
	e, err := NewEnv(cfg, geo)
	if err != nil {
		panic(fmt.Sprintf("baseline: %v", err))
	}
	return e
}

// checkBatch validates a batch's shape: at least one inference, one sparse
// input per table for each, and one dense input per inference when
// materialising.
func checkBatch(m *model.Model, denses []tensor.Vector, sparses [][][]int64, materialize bool) {
	if len(sparses) == 0 {
		panic("baseline: empty batch")
	}
	if materialize && len(denses) != len(sparses) {
		panic(fmt.Sprintf("baseline: %d dense inputs for %d inferences", len(denses), len(sparses)))
	}
	for _, sparse := range sparses {
		if len(sparse) != m.Cfg.Tables {
			panic(fmt.Sprintf("baseline: %d sparse inputs, want %d", len(sparse), m.Cfg.Tables))
		}
	}
}

// mustAddr resolves a row's flash address. Baseline systems are measurement
// harnesses driven by the repo's own in-range trace generators (no fault
// plan, no untrusted payloads), so a translator error here is a harness
// bug, not an input condition.
func mustAddr(tr *engine.Translator, table int, row int64) int64 {
	addr, err := tr.Lookup(table, row)
	if err != nil {
		panic(fmt.Sprintf("baseline: %v", err))
	}
	return addr
}

// hostBatch completes a batch of b inferences on the host once their
// pooled embeddings are in host memory at ready: it prices the amortised
// interaction, MLP and framework stages into bd, which holds the embedding
// stages, and when materialising runs each inference's interaction and
// MLPs over its pooled vectors.
func hostBatch(m *model.Model, b int, ready sim.Time, bd Breakdown, denses []tensor.Vector, pooled [][]tensor.Vector, materialize bool) ([]float32, sim.Time, Breakdown) {
	bd.Concat = time.Duration(b) * m.ConcatTime()
	bd.BotMLP = m.BottomTimeBatch(b)
	bd.TopMLP = m.TopTimeBatch(b)
	bd.Other = m.HostOverheadTime()
	var outs []float32
	if materialize {
		outs = make([]float32, b)
		for i, dense := range denses {
			outs[i] = m.TopForward(m.Interact(m.BottomForward(dense), pooled[i]))[0]
		}
	}
	return outs, ready + bd.EmbOp + bd.MLP() + bd.Other, bd
}

// pooledReturn prices the DMA of a batch's device-pooled vectors, one per
// table and inference, to the host.
func pooledReturn(cfg model.Config, b int) time.Duration {
	return DMAOut(int64(b) * int64(cfg.Tables) * int64(cfg.EVSize()))
}

// DMAOut models the device-to-host transfer of n bytes.
func DMAOut(n int64) time.Duration {
	return params.DMASetup + time.Duration(float64(n)/params.DMABandwidth*1e9)
}
