package baseline

import (
	"time"

	"rmssd/internal/engine"
	"rmssd/internal/evcache"
	"rmssd/internal/model"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
)

// DefaultRecSSDCacheBytes sizes RecSSD's host-side vector cache. 512 MiB
// comfortably holds the hot set of the default synthetic traces, so the
// cache hit ratio converges to the trace's hot mass — the mechanism behind
// Fig. 14's locality sensitivity.
const DefaultRecSSDCacheBytes = 512 << 20

// RecSSD re-implements Wilkening et al.'s near-data design on the
// simulated SSD, following the paper's own re-implementation notes
// (Section VI-C): page-grained in-SSD reads and pooling for vectors that
// miss the host-side cache (the design is "similar to EMB-PageSum plus a
// userspace cache"), with the returned partial sums merged against cached
// vectors on the host. The host cache is the same byte-budgeted vector LRU
// as RM-SSD's device cache (evcache.Cache); only its timing differs.
type RecSSD struct {
	env   *Env
	tr    *engine.Translator
	cache *evcache.Cache
	// channels models the firmware's synchronous per-channel page
	// service: one outstanding page per channel, Tpage plus firmware
	// overhead each (no die-level pipelining, unlike the RM-SSD
	// hardware engines).
	channels *sim.Pool
	ev       []byte // one vector's bytes, peeked from the device
}

// NewRecSSD builds RecSSD with the default host cache size.
func NewRecSSD(env *Env) *RecSSD {
	return NewRecSSDWithCache(env, DefaultRecSSDCacheBytes)
}

// NewRecSSDWithCache builds RecSSD with an explicit host cache budget.
func NewRecSSDWithCache(env *Env, cacheBytes int64) *RecSSD {
	return &RecSSD{
		env:      env,
		tr:       engine.NewTranslator(env.Store, env.Dev.PageSize()),
		cache:    evcache.New(cacheBytes, env.M.Cfg.EVSize()),
		channels: sim.NewPool("recssd.ch", env.Dev.Array().Geometry().Channels),
		ev:       make([]byte, env.M.Cfg.EVSize()),
	}
}

// pageRead serves one firmware page read on the page's home channel and
// returns its completion time.
func (s *RecSSD) pageRead(at sim.Time, lpn int64) sim.Time {
	ch := s.channels.Get(int(lpn % int64(s.channels.Len())))
	_, done := ch.Acquire(at, params.TPage+params.RecSSDFirmwarePageOverhead)
	return done
}

// Name implements System.
func (s *RecSSD) Name() string { return "RecSSD" }

// Model implements System.
func (s *RecSSD) Model() *model.Model { return s.env.M }

// Cache exposes the host-side vector cache. Its DRAM port and hit timing
// are unused: RecSSD charges host hits through its own cost model.
func (s *RecSSD) Cache() *evcache.Cache { return s.cache }

// PreWarmHot statically populates the host cache with the trace's hot set,
// hottest entries most recent, emulating RecSSD's history-partitioned
// cache ("the host-side cache of RecSSD is statically partitioned based on
// history input"). hotRow(table, rank) returns the rank-th hottest row of
// the table; hotPerTable bounds how many ranks exist.
func (s *RecSSD) PreWarmHot(hotRow func(table int, rank int64) int64, hotPerTable int64) {
	tables := s.env.M.Cfg.Tables
	per := min(int64(s.cache.CapEntries()/tables), hotPerTable)
	// Insert coldest-first so the hottest entries end up most recent. A
	// resident entry is a hit in both modes.
	for t := 0; t < tables; t++ {
		for rank := per - 1; rank >= 0; rank-- {
			s.cache.Reserve(t, hotRow(t, rank))
		}
	}
}

// InferBatch implements System.
func (s *RecSSD) InferBatch(at sim.Time, denses []tensor.Vector, sparses [][][]int64) ([]float32, sim.Time, Breakdown) {
	return s.batch(at, denses, sparses, true)
}

// InferBatchTiming implements System.
func (s *RecSSD) InferBatchTiming(at sim.Time, sparses [][][]int64) (sim.Time, Breakdown) {
	_, done, bd := s.batch(at, nil, sparses, false)
	return done, bd
}

// batch runs one batch iteration. Lookups split into host-cache hits and
// device misses; the misses go to the SSD as page-grained ISC reads issued
// back to back across the batch and pooled on the device. The partial sums
// return over DMA and the host merges them with the cached vectors'
// contribution, a gather and an accumulate per hit.
func (s *RecSSD) batch(at sim.Time, denses []tensor.Vector, sparses [][][]int64, materialize bool) ([]float32, sim.Time, Breakdown) {
	cfg := s.env.M.Cfg
	checkBatch(s.env.M, denses, sparses, materialize)
	ps := int64(s.env.Dev.PageSize())
	b := len(sparses)
	pooled := make([][]tensor.Vector, b)
	issue := at
	devDone := at
	var hits int64
	for i, sparse := range sparses {
		if materialize {
			pooled[i] = make([]tensor.Vector, cfg.Tables)
			for t := range pooled[i] {
				pooled[i][t] = make(tensor.Vector, cfg.EVDim)
			}
		}
		for t, rows := range sparse {
			for _, row := range rows {
				// The cache decides timing only: hit or miss, the
				// vector's bytes come from the device's page store.
				addr := mustAddr(s.tr, t, row)
				if materialize {
					s.env.Dev.PeekRangeInto(addr, s.ev)
					model.AccumulateEV(pooled[i][t], s.ev)
				}
				if s.cache.Get(t, row) {
					hits++
					continue
				}
				issue += params.CycleTime
				devDone = sim.Max(devDone, s.pageRead(issue, addr/ps))
				s.cache.Reserve(t, row)
			}
		}
	}
	bd := Breakdown{
		EmbSSD: time.Duration(devDone - at),
		EmbFS:  pooledReturn(cfg, b),
		EmbOp: time.Duration(hits)*mergeLookupCost(b) +
			time.Duration((hits+int64(b)*int64(cfg.Tables))*int64(cfg.EVDim)/
				params.CPUAccumulateElemsPerNanosecond)*time.Nanosecond,
	}
	return hostBatch(s.env.M, len(sparses), devDone+bd.EmbFS, bd, denses, pooled, materialize)
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
