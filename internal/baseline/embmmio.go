package baseline

import (
	"time"

	"rmssd/internal/hostio"
	"rmssd/internal/model"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
)

// EmbMMIO is the paper's EMB-MMIO configuration: "all embedding vector
// related pages are fetched to the userspace directly through MMIO with
// the granularity of page size and then sum operations performed by the
// host CPU". The kernel I/O stack and page cache are bypassed, but reads
// are still page-granular and pooling still burns host cycles.
type EmbMMIO struct {
	env  *Env
	host *hostio.Host
	ev   []byte // one vector's bytes, peeked from the device
}

// NewEmbMMIO builds the EMB-MMIO system.
func NewEmbMMIO(env *Env) *EmbMMIO {
	return &EmbMMIO{env: env, host: hostio.NewHost(env.FS, 0), ev: make([]byte, env.M.Cfg.EVSize())}
}

// Name implements System.
func (s *EmbMMIO) Name() string { return "EMB-MMIO" }

// Model implements System.
func (s *EmbMMIO) Model() *model.Model { return s.env.M }

// Host exposes the I/O path for traffic accounting.
func (s *EmbMMIO) Host() *hostio.Host { return s.host }

// InferBatch implements System.
func (s *EmbMMIO) InferBatch(at sim.Time, denses []tensor.Vector, sparses [][][]int64) ([]float32, sim.Time, Breakdown) {
	return s.batch(at, denses, sparses, true)
}

// InferBatchTiming implements System.
func (s *EmbMMIO) InferBatchTiming(at sim.Time, sparses [][][]int64) (sim.Time, Breakdown) {
	_, done, bd := s.batch(at, nil, sparses, false)
	return done, bd
}

// batch runs one batch iteration: the page fetches stay serial, inference
// after inference, while pooling and the MLPs amortise.
func (s *EmbMMIO) batch(at sim.Time, denses []tensor.Vector, sparses [][][]int64, materialize bool) ([]float32, sim.Time, Breakdown) {
	checkBatch(s.env.M, denses, sparses, materialize)
	pooled := make([][]tensor.Vector, len(sparses))
	now := at
	var bd Breakdown
	for i, sparse := range sparses {
		pooled[i], now = s.read(now, sparse, materialize, &bd)
	}
	bd.EmbOp = s.env.M.SLSComputeTimeBatch(len(sparses))
	return hostBatch(s.env.M, len(sparses), now, bd, denses, pooled, materialize)
}

// read fetches one inference's pages through the MMIO window, returning
// the pooled vectors (nil when materialize is false) and the completion
// time, and adds the fetches' device and MMIO time to bd.
func (s *EmbMMIO) read(at sim.Time, sparse [][]int64, materialize bool, bd *Breakdown) ([]tensor.Vector, sim.Time) {
	cfg := s.env.M.Cfg
	now := at
	var pooled []tensor.Vector
	if materialize {
		pooled = make([]tensor.Vector, cfg.Tables)
	}
	var pages int64
	for t, rows := range sparse {
		f := s.env.Store.File(t)
		var sum tensor.Vector
		if materialize {
			sum = make(tensor.Vector, cfg.EVDim)
		}
		for _, row := range rows {
			now = s.host.ReadMMIO(now, f, s.env.Store.VectorFileOffset(row), cfg.EVSize())
			pages++
			if materialize {
				s.env.Dev.PeekRangeInto(s.env.Store.VectorAddr(t, row), s.ev)
				model.AccumulateEV(sum, s.ev)
			}
		}
		if materialize {
			pooled[t] = sum
		}
	}
	bd.EmbSSD += time.Duration(pages) * params.TPage
	bd.EmbFS += time.Duration(pages) * params.MMIOPageFetchCost
	return pooled, now
}
