package baseline

import (
	"time"

	"rmssd/internal/engine"
	"rmssd/internal/model"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
)

// EmbPageSum is the paper's EMB-PageSum configuration: "all embedding
// vector related pages are also read from flash channels, but sum
// operations are performed inside the SSD". The in-storage engine issues
// the page reads back to back, exploiting channel/die parallelism, and
// only the pooled vectors cross PCIe — but each lookup still moves a whole
// page off the flash dies, so the channel buses carry 4 KiB per vector.
type EmbPageSum struct {
	env *Env
	tr  *engine.Translator
	ev  []byte // one vector's bytes, peeked from the device
}

// NewEmbPageSum builds the EMB-PageSum system.
func NewEmbPageSum(env *Env) *EmbPageSum {
	return &EmbPageSum{
		env: env,
		tr:  engine.NewTranslator(env.Store, env.Dev.PageSize()),
		ev:  make([]byte, env.M.Cfg.EVSize()),
	}
}

// Name implements System.
func (s *EmbPageSum) Name() string { return "EMB-PageSum" }

// Model implements System.
func (s *EmbPageSum) Model() *model.Model { return s.env.M }

// InferBatch implements System.
func (s *EmbPageSum) InferBatch(at sim.Time, denses []tensor.Vector, sparses [][][]int64) ([]float32, sim.Time, Breakdown) {
	return s.batch(at, denses, sparses, true)
}

// InferBatchTiming implements System.
func (s *EmbPageSum) InferBatchTiming(at sim.Time, sparses [][][]int64) (sim.Time, Breakdown) {
	_, done, bd := s.batch(at, nil, sparses, false)
	return done, bd
}

// batch runs one batch iteration: in-SSD pooling of all inferences
// overlaps on the flash array, and the pooled vectors return together.
func (s *EmbPageSum) batch(at sim.Time, denses []tensor.Vector, sparses [][][]int64, materialize bool) ([]float32, sim.Time, Breakdown) {
	checkBatch(s.env.M, denses, sparses, materialize)
	pooled := make([][]tensor.Vector, len(sparses))
	devDone := at
	for i, sparse := range sparses {
		var done sim.Time
		pooled[i], done = s.pool(at, sparse, materialize)
		devDone = sim.Max(devDone, done)
	}
	bd := Breakdown{EmbSSD: time.Duration(devDone - at), EmbFS: pooledReturn(s.env.M.Cfg, len(sparses))}
	return hostBatch(s.env.M, len(sparses), devDone+bd.EmbFS, bd, denses, pooled, materialize)
}

// pool performs one inference's in-SSD page-grained pooling.
func (s *EmbPageSum) pool(at sim.Time, sparse [][]int64, materialize bool) ([]tensor.Vector, sim.Time) {
	cfg := s.env.M.Cfg
	ps := int64(s.env.Dev.PageSize())
	var pooled []tensor.Vector
	if materialize {
		pooled = make([]tensor.Vector, cfg.Tables)
		for t := range pooled {
			pooled[t] = make(tensor.Vector, cfg.EVDim)
		}
	}
	issue := at
	done := at
	for t, rows := range sparse {
		for _, row := range rows {
			issue += params.CycleTime
			addr := mustAddr(s.tr, t, row)
			lpn := addr / ps
			readDone := s.env.Dev.ReadPageInternal(issue, lpn)
			done = sim.Max(done, readDone)
			if materialize {
				s.env.Dev.PeekRangeInto(addr, s.ev)
				model.AccumulateEV(pooled[t], s.ev)
			}
		}
	}
	return pooled, done
}
