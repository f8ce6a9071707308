package baseline

import (
	"fmt"
	"time"

	"rmssd/internal/engine"
	"rmssd/internal/model"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
)

// EmbVectorSum is "RM-SSD running with Embedding Lookup Engine only": the
// vector-grained in-SSD pooling path of Section IV-B, with feature
// interaction and the MLPs still on the host CPU.
type EmbVectorSum struct {
	env    *Env
	lookup *engine.LookupEngine
}

// NewEmbVectorSum builds the EMB-VectorSum system.
func NewEmbVectorSum(env *Env) *EmbVectorSum {
	return &EmbVectorSum{env: env, lookup: engine.NewLookupEngine(env.Store, env.Dev)}
}

// Name implements System.
func (s *EmbVectorSum) Name() string { return "EMB-VectorSum" }

// Model implements System.
func (s *EmbVectorSum) Model() *model.Model { return s.env.M }

// Lookup exposes the engine for traffic accounting.
func (s *EmbVectorSum) Lookup() *engine.LookupEngine { return s.lookup }

// InferBatch implements System.
func (s *EmbVectorSum) InferBatch(at sim.Time, denses []tensor.Vector, sparses [][][]int64) ([]float32, sim.Time, Breakdown) {
	return s.batch(at, denses, sparses, true)
}

// InferBatchTiming implements System.
func (s *EmbVectorSum) InferBatchTiming(at sim.Time, sparses [][][]int64) (sim.Time, Breakdown) {
	_, done, bd := s.batch(at, nil, sparses, false)
	return done, bd
}

// batch runs one batch iteration: the engine pools every inference from
// the same start, overlapping on the flash array, and the pooled vectors
// return together.
func (s *EmbVectorSum) batch(at sim.Time, denses []tensor.Vector, sparses [][][]int64, materialize bool) ([]float32, sim.Time, Breakdown) {
	checkBatch(s.env.M, denses, sparses, materialize)
	pooled, done, err := s.lookup.PoolBatch(at, sparses, materialize)
	if err != nil {
		// In-range generator inputs on an unfaulted device cannot error.
		panic(fmt.Sprintf("baseline: %v", err))
	}
	devDone := sim.Max(at, done)
	bd := Breakdown{EmbSSD: time.Duration(devDone - at), EmbFS: pooledReturn(s.env.M.Cfg, len(sparses))}
	return hostBatch(s.env.M, len(sparses), devDone+bd.EmbFS, bd, denses, pooled, materialize)
}
