package baseline

import (
	"fmt"
	"time"

	"rmssd/internal/model"
	"rmssd/internal/params"
	"rmssd/internal/sim"
)

// BatchSystem is a System that can run a whole batch iteration the way the
// host frameworks do: per-inference I/O, but host compute (SLS, MLPs,
// framework dispatch) amortised across the batch. Fig. 2 and Fig. 12
// measure exactly this.
type BatchSystem interface {
	System
	// InferBatchTiming runs one batch iteration timing-only and returns
	// the completion time plus the accumulated breakdown.
	InferBatchTiming(at sim.Time, sparses [][][]int64) (sim.Time, Breakdown)
}

// hostBatchBreakdown prices the host-compute stages of one batch iteration.
func hostBatchBreakdown(m *model.Model, b int) Breakdown {
	return Breakdown{
		Concat: time.Duration(b) * m.ConcatTime(),
		BotMLP: m.BottomTimeBatch(b),
		TopMLP: m.TopTimeBatch(b),
		Other:  m.HostOverheadTime(),
	}
}

// InferBatchTiming implements BatchSystem for the DRAM baseline.
func (d *DRAM) InferBatchTiming(at sim.Time, sparses [][][]int64) (sim.Time, Breakdown) {
	b := len(sparses)
	for _, sparse := range sparses {
		checkSparse(d.m, sparse)
	}
	bd := hostBatchBreakdown(d.m, b)
	bd.EmbOp = d.m.SLSComputeTimeBatch(b)
	return at + bd.Total(), bd
}

// InferBatchTiming implements BatchSystem for SSD-S/SSD-M: the vector file
// reads stay strictly serial per inference (the lseek+read loop cannot
// batch), while pooling and the MLPs amortise.
func (s *NaiveSSD) InferBatchTiming(at sim.Time, sparses [][][]int64) (sim.Time, Breakdown) {
	b := len(sparses)
	now := at
	var embSSD, embFS time.Duration
	for _, sparse := range sparses {
		checkSparse(s.env.M, sparse)
		_, done, dSSD, dFS := s.readEmbeddings(now, sparse, false)
		now = done
		embSSD += dSSD
		embFS += dFS
	}
	bd := hostBatchBreakdown(s.env.M, b)
	bd.EmbSSD = embSSD
	bd.EmbFS = embFS
	bd.EmbOp = s.env.M.SLSComputeTimeBatch(b)
	return now + bd.EmbOp + bd.Concat + bd.BotMLP + bd.TopMLP + bd.Other, bd
}

// InferBatchTiming implements BatchSystem for EMB-MMIO.
func (s *EmbMMIO) InferBatchTiming(at sim.Time, sparses [][][]int64) (sim.Time, Breakdown) {
	b := len(sparses)
	now := at
	var embSSD, embFS time.Duration
	for _, sparse := range sparses {
		checkSparse(s.env.M, sparse)
		_, done, dSSD, dFS := s.read(now, sparse, false)
		now = done
		embSSD += dSSD
		embFS += dFS
	}
	bd := hostBatchBreakdown(s.env.M, b)
	bd.EmbSSD = embSSD
	bd.EmbFS = embFS
	bd.EmbOp = s.env.M.SLSComputeTimeBatch(b)
	return now + bd.EmbOp + bd.Concat + bd.BotMLP + bd.TopMLP + bd.Other, bd
}

// InferBatchTiming implements BatchSystem for EMB-PageSum: in-SSD pooling
// of all inferences overlaps on the flash array; results return together.
func (s *EmbPageSum) InferBatchTiming(at sim.Time, sparses [][][]int64) (sim.Time, Breakdown) {
	b := len(sparses)
	cfg := s.env.M.Cfg
	devDone := at
	for _, sparse := range sparses {
		checkSparse(s.env.M, sparse)
		_, done := s.pool(at, sparse, false)
		devDone = sim.Max(devDone, done)
	}
	bd := hostBatchBreakdown(s.env.M, b)
	bd.EmbSSD = time.Duration(devDone - at)
	bd.EmbFS = DMAOut(int64(b) * int64(cfg.Tables) * int64(cfg.EVSize()))
	return devDone + bd.EmbFS + bd.Concat + bd.BotMLP + bd.TopMLP + bd.Other, bd
}

// InferBatchTiming implements BatchSystem for EMB-VectorSum.
func (s *EmbVectorSum) InferBatchTiming(at sim.Time, sparses [][][]int64) (sim.Time, Breakdown) {
	b := len(sparses)
	cfg := s.env.M.Cfg
	devDone := at
	for _, sparse := range sparses {
		checkSparse(s.env.M, sparse)
		poolDone, err := s.lookup.PoolTiming(at, sparse)
		if err != nil {
			// In-range generator inputs on an unfaulted device cannot error.
			panic(fmt.Sprintf("baseline: %v", err))
		}
		devDone = sim.Max(devDone, poolDone)
	}
	bd := hostBatchBreakdown(s.env.M, b)
	bd.EmbSSD = time.Duration(devDone - at)
	bd.EmbFS = DMAOut(int64(b) * int64(cfg.Tables) * int64(cfg.EVSize()))
	return devDone + bd.EmbFS + bd.Concat + bd.BotMLP + bd.TopMLP + bd.Other, bd
}

// InferBatchTiming implements BatchSystem for RecSSD.
func (s *RecSSD) InferBatchTiming(at sim.Time, sparses [][][]int64) (sim.Time, Breakdown) {
	b := len(sparses)
	cfg := s.env.M.Cfg
	ps := int64(s.env.Dev.PageSize())
	devDone := at
	issue := at
	var hits int64
	for _, sparse := range sparses {
		checkSparse(s.env.M, sparse)
		for t, rows := range sparse {
			for _, row := range rows {
				if _, ok := s.cache.Get(t, row); ok {
					hits++
					continue
				}
				issue += params.CycleTime
				addr := mustAddr(s.tr, t, row)
				devDone = sim.Max(devDone, s.pageRead(issue, addr/ps))
				s.cache.Reserve(t, row)
			}
		}
	}
	bd := hostBatchBreakdown(s.env.M, b)
	bd.EmbSSD = time.Duration(devDone - at)
	bd.EmbFS = DMAOut(int64(b) * int64(cfg.Tables) * int64(cfg.EVSize()))
	perLookup := mergeLookupCost(b)
	bd.EmbOp = time.Duration(hits)*perLookup +
		time.Duration(int64(b)*int64(cfg.Tables)*int64(cfg.EVDim)/
			params.CPUAccumulateElemsPerNanosecond)*time.Nanosecond
	return devDone + bd.EmbFS + bd.EmbOp + bd.Concat + bd.BotMLP + bd.TopMLP + bd.Other, bd
}

// mergeLookupCost returns the per-cached-lookup host merge cost at batch b
// (amortising like the SLS gather).
func mergeLookupCost(b int) time.Duration {
	per := params.CPULookupCost / time.Duration(b)
	if per < params.CPULookupCostBatched {
		per = params.CPULookupCostBatched
	}
	return per
}
