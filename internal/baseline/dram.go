package baseline

import (
	"rmssd/internal/model"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
)

// DRAM is the ideal deployment: the entire model, embeddings included,
// resident in host memory without capacity limits (the paper's "DRAM"
// column, run "without memory limitation as the ideal case").
type DRAM struct {
	m *model.Model
}

// NewDRAM builds the in-memory system. Embedding values come from the
// model's deterministic generator, exactly as a fully-loaded table would.
func NewDRAM(m *model.Model) *DRAM { return &DRAM{m: m} }

// Name implements System.
func (d *DRAM) Name() string { return "DRAM" }

// Model implements System.
func (d *DRAM) Model() *model.Model { return d.m }

// InferBatch implements System.
func (d *DRAM) InferBatch(at sim.Time, denses []tensor.Vector, sparses [][][]int64) ([]float32, sim.Time, Breakdown) {
	return d.batch(at, denses, sparses, true)
}

// InferBatchTiming implements System.
func (d *DRAM) InferBatchTiming(at sim.Time, sparses [][][]int64) (sim.Time, Breakdown) {
	_, done, bd := d.batch(at, nil, sparses, false)
	return done, bd
}

// batch runs one batch iteration. Everything is memory-resident, so the
// embedding layer costs only the SLS gather+sum compute.
func (d *DRAM) batch(at sim.Time, denses []tensor.Vector, sparses [][][]int64, materialize bool) ([]float32, sim.Time, Breakdown) {
	checkBatch(d.m, denses, sparses, materialize)
	pooled := make([][]tensor.Vector, len(sparses))
	if materialize {
		for i, sparse := range sparses {
			pooled[i] = make([]tensor.Vector, len(sparse))
			for t, rows := range sparse {
				pooled[i][t] = d.m.PoolReference(t, rows)
			}
		}
	}
	return hostBatch(d.m, len(sparses), at, Breakdown{EmbOp: d.m.SLSComputeTimeBatch(len(sparses))}, denses, pooled, materialize)
}
