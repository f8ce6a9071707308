package baseline

import (
	"fmt"
	"time"

	"rmssd/internal/hostio"
	"rmssd/internal/model"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
)

// NaiveSSD is the paper's SSD-S / SSD-M baseline: embedding tables live in
// files on the SSD, each required vector is read with lseek+read through
// the kernel I/O stack and a page cache whose capacity is a fraction of
// the total table bytes (1/4 for SSD-S, 1/2 for SSD-M), and pooling plus
// the full MLP run on the host CPU.
type NaiveSSD struct {
	name string
	env  *Env
	host *hostio.Host
	ev   []byte // one vector's bytes, peeked from the device
}

// NewSSDS builds the SSD-S baseline (DRAM limited to 1/4 of table bytes).
func NewSSDS(env *Env) *NaiveSSD { return NewNaiveSSD(env, "SSD-S", 4) }

// NewSSDM builds the SSD-M baseline (DRAM limited to 1/2 of table bytes).
func NewSSDM(env *Env) *NaiveSSD { return NewNaiveSSD(env, "SSD-M", 2) }

// NewNaiveSSD builds a naive SSD system whose page cache holds
// tableBytes/divisor bytes.
func NewNaiveSSD(env *Env, name string, divisor int64) *NaiveSSD {
	if divisor <= 0 {
		panic(fmt.Sprintf("baseline: cache divisor %d", divisor))
	}
	budget := env.M.Cfg.TableBytes() / divisor
	return &NaiveSSD{
		name: name,
		env:  env,
		host: hostio.NewHost(env.FS, budget),
		ev:   make([]byte, env.M.Cfg.EVSize()),
	}
}

// Name implements System.
func (s *NaiveSSD) Name() string { return s.name }

// Model implements System.
func (s *NaiveSSD) Model() *model.Model { return s.env.M }

// Host exposes the I/O path for traffic accounting (Fig. 3).
func (s *NaiveSSD) Host() *hostio.Host { return s.host }

// Warm replays a batch of sparse inputs against the page cache without
// counting time or traffic: the paper's warm-up phase before steady-state
// measurement.
func (s *NaiveSSD) Warm(batch [][][]int64) {
	cfg := s.env.M.Cfg
	for _, sparse := range batch {
		for t, rows := range sparse {
			f := s.env.Store.File(t)
			for _, row := range rows {
				s.host.Warm(f, s.env.Store.VectorFileOffset(row), cfg.EVSize())
			}
		}
	}
}

// InferBatch implements System.
func (s *NaiveSSD) InferBatch(at sim.Time, denses []tensor.Vector, sparses [][][]int64) ([]float32, sim.Time, Breakdown) {
	return s.batch(at, denses, sparses, true)
}

// InferBatchTiming implements System.
func (s *NaiveSSD) InferBatchTiming(at sim.Time, sparses [][][]int64) (sim.Time, Breakdown) {
	_, done, bd := s.batch(at, nil, sparses, false)
	return done, bd
}

// batch runs one batch iteration: the vector file reads stay strictly
// serial, inference after inference (the lseek+read loop cannot batch),
// while pooling and the MLPs amortise.
func (s *NaiveSSD) batch(at sim.Time, denses []tensor.Vector, sparses [][][]int64, materialize bool) ([]float32, sim.Time, Breakdown) {
	checkBatch(s.env.M, denses, sparses, materialize)
	pooled := make([][]tensor.Vector, len(sparses))
	now := at
	var bd Breakdown
	for i, sparse := range sparses {
		pooled[i], now = s.readEmbeddings(now, sparse, materialize, &bd)
	}
	bd.EmbOp = s.env.M.SLSComputeTimeBatch(len(sparses))
	return hostBatch(s.env.M, len(sparses), now, bd, denses, pooled, materialize)
}

// readEmbeddings performs one inference's per-vector file reads, returning
// the pooled vectors (nil when materialize is false) and the completion
// time, and adds the read time's device and I/O-stack split to bd.
func (s *NaiveSSD) readEmbeddings(at sim.Time, sparse [][]int64, materialize bool, bd *Breakdown) ([]tensor.Vector, sim.Time) {
	cfg := s.env.M.Cfg
	before := s.host.Cache().Stats()
	now := at
	var pooled []tensor.Vector
	if materialize {
		pooled = make([]tensor.Vector, cfg.Tables)
	}
	for t, rows := range sparse {
		f := s.env.Store.File(t)
		var sum tensor.Vector
		if materialize {
			sum = make(tensor.Vector, cfg.EVDim)
		}
		for _, row := range rows {
			now = s.host.ReadAt(now, f, s.env.Store.VectorFileOffset(row), cfg.EVSize())
			if materialize {
				s.env.Dev.PeekRangeInto(s.env.Store.VectorAddr(t, row), s.ev)
				model.AccumulateEV(sum, s.ev)
			}
		}
		if materialize {
			pooled[t] = sum
		}
	}
	after := s.host.Cache().Stats()
	hits := after.Hits - before.Hits
	misses := after.Misses - before.Misses
	bd.EmbSSD += time.Duration(misses) * (params.NVMeCmdCost + params.TPage + params.NVMeCompletionCost)
	bd.EmbFS += time.Duration(hits)*params.PageCacheHitCost + time.Duration(misses)*params.PageCacheMissOverhead
	return pooled, now
}
