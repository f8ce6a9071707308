package engine

import (
	"errors"
	"fmt"
	"sync"

	"rmssd/internal/evcache"
	"rmssd/internal/flash"
	"rmssd/internal/model"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/ssd"
	"rmssd/internal/tensor"
)

// Locality fast path: device-DRAM EV cache + intra-batch dedup.
//
// Recommendation traffic is heavily skewed (Section III-B2); the default
// lookup path nevertheless issues one full C_EV flash read per sparse index,
// even when the same hot row appears dozens of times in one coalesced batch.
// poolLocality exploits that skew two ways, both strictly value-preserving:
//
//   - EV cache: vectors resident in the controller's DRAM are served in
//     params.EVCacheHitCycles (~8 cycles for a 128 B vector, vs C_EV ≈ 2838)
//     over the cache's FCFS DRAM port; misses read flash as before and fill
//     the cache. Fill copies the read bytes into the cache's slab, so a hit
//     returns exactly the bytes a flash read would, and the read buffer is
//     not retained.
//   - Dedup: within one pooled batch, repeated (table,row) references merge
//     with the first occurrence's read. Each duplicate still contributes its
//     own term to the pooled sum (SparseLengthsSum semantics: a row listed
//     twice counts twice) and still occupies the EV Sum unit for its slot —
//     only the redundant flash/DRAM fetch disappears. Its data becomes ready
//     when the owning read's does (never before the duplicate's own issue
//     cycle), so dedup can only pull completion earlier, exactly like the
//     hardware broadcasting one returned vector to several accumulators.
//
// The structure mirrors parallel.go's three phases, and for the same reason:
//
//  1. plan (sequential, global order): clock the index stream, consult the
//     dedup table and the cache, schedule cache-port hits, run the FTL for
//     misses, bucket flash work by channel. Every piece of shared state the
//     schedule depends on — LRU recency, reservations, evictions, port and
//     FTL bookkeeping — mutates here, in one deterministic order, so the
//     simulated timeline is independent of host parallelism and shard
//     interleaving by construction.
//  2. flash (optionally lane-parallel): replay each channel's misses in plan
//     order on its lane. Channel-disjoint, exactly as in parallel.go.
//  3. reduce (sequential, global order): resolve each slot's bytes (flash
//     result, cached bytes, or the owning slot's bytes), accumulate floats
//     in the original lookup order — so sums are bit-identical to the
//     uncached path — fill reserved cache entries, and replay the EV Sum
//     unit.
//
// MSHR invariant: a miss Reserves its cache entry during plan and Fills it
// during reduce, so an unfilled resident entry always belongs to the current
// batch and its owning slot is in e.owners. Entries never persist unfilled
// across batches.
//
// Stale handles: when a batch reserves more entries than the cache holds, a
// later reservation in the same plan can evict an earlier one and reuse its
// cache slot. The earlier lookup's handle is then stale and its reduce-phase
// Fill is a no-op, leaving the slot to its new owner. A hit's bytes alias
// the cache slab; they are safe to read in reduce because a slot is only
// refilled by a reservation planned after the hit, and reduce runs in plan
// order.

// slotKind says how one lookup's bytes are produced.
type slotKind uint8

const (
	slotFlash slotKind = iota // vector read from flash (the default path)
	slotZero                  // unmapped page on a dynamic device: zeros
	slotHit                   // EV cache hit served over the DRAM port
	slotDup                   // merged with an earlier slot's read
)

// lkSlot is one lookup's state across the three phases.
type lkSlot struct {
	vec   int32 // flat accumulator index: inference*Tables + table
	kind  slotKind
	owner int32    // slotDup: the owning slot's index
	start sim.Time // slotDup: the duplicate's own issue time (ready floor)
	key   evcache.Key
	vr    ssd.VectorRead
	fill  evcache.Handle // slotFlash/slotZero: reserved entry to Fill (may be zero)
	data  []byte
	ready sim.Time
	err   error // uncorrectable read (wraps flash.ErrUncorrectable)
}

// PoolBatch performs the pooled lookups of a whole coalesced batch of
// inferences, sharing one dedup table across them: identical (table,row)
// references anywhere in the batch issue a single read. Each inference's
// index stream is clocked from at, exactly as the per-inference Pool calls
// of the default path are. It returns each inference's pooled vectors and
// the completion time of the whole batch.
//
// Without a cache or dedup enabled this degrades to the default path,
// byte-identical to calling Pool per inference.
func (e *LookupEngine) PoolBatch(at sim.Time, sparses [][][]int64) ([][]tensor.Vector, sim.Time, error) {
	return e.poolBatch(at, sparses, true)
}

// PoolBatchTiming is PoolBatch without materialising values.
func (e *LookupEngine) PoolBatchTiming(at sim.Time, sparses [][][]int64) (sim.Time, error) {
	_, done, err := e.poolBatch(at, sparses, false)
	return done, err
}

func (e *LookupEngine) poolBatch(at sim.Time, sparses [][][]int64, materialize bool) ([][]tensor.Vector, sim.Time, error) {
	if len(sparses) == 0 {
		return nil, at, fmt.Errorf("engine: empty lookup batch: %w", ErrShapeMismatch)
	}
	if e.LocalityEnabled() {
		return e.poolLocality(at, sparses, materialize)
	}
	var pooled [][]tensor.Vector
	if materialize {
		pooled = make([][]tensor.Vector, len(sparses))
	}
	var done sim.Time
	var firstErr error
	for i, sparse := range sparses {
		p, d, err := e.pool(at, sparse, materialize)
		if err != nil {
			// Shape/range errors abort the whole batch: the remaining
			// inferences were never admitted to the device. A read fault
			// keeps going — the other inferences' reads already issued.
			if !errors.Is(err, flash.ErrUncorrectable) {
				return nil, sim.Max(done, d), fmt.Errorf("engine: inference %d: %w", i, err)
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("engine: inference %d: %w", i, err)
			}
		}
		if materialize {
			pooled[i] = p
		}
		done = sim.Max(done, d)
	}
	return pooled, done, firstErr
}

// abortLocality restores the MSHR invariant after an aborted plan phase:
// every entry the plan reserved is dropped from the cache, so no unfilled
// entry survives into the next batch.
func (e *LookupEngine) abortLocality(slots []lkSlot) {
	for i := range slots {
		if slots[i].fill.Reserved() {
			e.cache.Invalidate(slots[i].key.Table, slots[i].key.Row)
		}
	}
	e.slots = slots[:0]
}

func (e *LookupEngine) poolLocality(at sim.Time, sparses [][][]int64, materialize bool) ([][]tensor.Vector, sim.Time, error) {
	cfg := e.st.Model().Cfg
	evSize := cfg.EVSize()
	sumOcc := params.Duration(e.sumCycles())
	if e.owners == nil {
		e.owners = make(map[evcache.Key]int32)
	} else {
		clear(e.owners)
	}
	if len(e.zeroEV) != evSize {
		e.zeroEV = make([]byte, evSize)
	}

	// Phase 1 — sequential plan in global order.
	slots := e.slots[:0]
	perCh := e.resetPerCh()
	var maxIssue sim.Time
	for b, sparse := range sparses {
		if len(sparse) != cfg.Tables {
			e.abortLocality(slots)
			return nil, sim.Max(at, maxIssue), fmt.Errorf("engine: inference %d: %d sparse inputs, want %d: %w",
				b, len(sparse), cfg.Tables, ErrShapeMismatch)
		}
		issue := at
		for t, rows := range sparse {
			vec := int32(b*cfg.Tables + t)
			for _, row := range rows {
				// One index parsed per cycle (Read EV Req, Fig. 6).
				issue += params.CycleTime
				e.stats.Lookups++
				e.stats.BytesPooled += int64(evSize)
				idx := int32(len(slots))
				key := evcache.Key{Table: t, Row: row}

				if e.dedup {
					if own, ok := e.owners[key]; ok {
						e.stats.DedupHits++
						slots = append(slots, lkSlot{vec: vec, kind: slotDup, owner: own, start: issue, key: key})
						continue
					}
				}
				if e.cache != nil {
					if h, ok := e.cache.Get(t, row); ok {
						if e.cache.Filled(h) {
							// Resident vector: one DRAM burst on the port.
							slots = append(slots, lkSlot{
								vec: vec, kind: slotHit, key: key,
								data: e.cache.Data(h), ready: e.cache.Hit(issue),
							})
						} else {
							// In-flight miss from this batch (MSHR merge).
							own, ok := e.owners[key]
							if !ok {
								panic(fmt.Sprintf("engine: unfilled cache entry for table %d row %d has no owning slot", t, row))
							}
							slots = append(slots, lkSlot{vec: vec, kind: slotDup, owner: own, start: issue, key: key})
						}
						continue
					}
				}

				// Miss everywhere: read flash, exactly as the default path.
				addr, err := e.tr.Lookup(t, row)
				if err != nil {
					e.abortLocality(slots)
					return nil, sim.Max(issue, maxIssue), fmt.Errorf("engine: inference %d: %w", b, err)
				}
				vr := e.dev.PrepareVectorRead(issue, addr, evSize)
				var fill evcache.Handle
				if e.cache != nil {
					fill = e.cache.Reserve(t, row)
				}
				if vr.Mapped {
					slots = append(slots, lkSlot{vec: vec, kind: slotFlash, vr: vr, fill: fill, key: key})
					perCh[vr.PPA.Channel] = append(perCh[vr.PPA.Channel], idx)
				} else {
					// Never-written page on a dynamic device: zeros at
					// translation time, no flash involvement.
					slots = append(slots, lkSlot{vec: vec, kind: slotZero, ready: vr.Start, fill: fill, data: e.zeroEV, key: key})
				}
				if e.dedup || e.cache != nil {
					e.owners[key] = idx
				}
			}
		}
		if issue > maxIssue {
			maxIssue = issue
		}
	}

	// Phase 2 — flash scheduling for the misses, one lane per channel,
	// optionally on worker goroutines (channel-disjoint; see parallel.go).
	arr := e.dev.Array()
	lanes := make([]*flash.Lane, len(perCh))
	for ch := range perCh {
		if len(perCh[ch]) > 0 {
			lanes[ch] = arr.Lane(ch)
		}
	}
	workers := e.Parallel()
	if workers > len(perCh) {
		workers = len(perCh)
	}
	runLane := func(ch int) {
		lane := lanes[ch]
		if lane == nil {
			return
		}
		for _, i := range perCh[ch] {
			r := &slots[i]
			// Bytes are materialised even on timing-only runs: the cache
			// may serve them to a later materialising batch.
			r.data, r.ready, r.err = lane.ReadVector(r.vr.Start, r.vr.PPA, r.vr.Col, r.vr.Size)
		}
	}
	if workers > 1 {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for ch := w; ch < len(perCh); ch += workers {
					runLane(ch)
				}
			}(w)
		}
		wg.Wait()
	} else {
		for ch := range perCh {
			runLane(ch)
		}
	}
	for _, lane := range lanes {
		if lane != nil {
			lane.Close()
		}
	}

	// Phase 3 — sequential reduce in global order.
	var pooled [][]tensor.Vector
	var vecs []tensor.Vector
	if materialize {
		pooled = pooledVectors(len(sparses), cfg.Tables, cfg.EVDim)
		vecs = make([]tensor.Vector, len(sparses)*cfg.Tables)
		for i := range pooled {
			copy(vecs[i*cfg.Tables:], pooled[i])
		}
	}
	var done sim.Time
	var firstErr error
	for i := range slots {
		s := &slots[i]
		if s.kind == slotDup {
			own := &slots[s.owner]
			s.data = own.data
			s.ready = sim.Max(s.start, own.ready)
			s.err = own.err
		}
		if s.err != nil {
			// Uncorrectable read: drop the reserved entry (left unfilled
			// it would later look like another batch's in-flight miss),
			// contribute no bytes and no EV Sum term, and fail the call
			// after the reduce completes so cache state stays on the
			// deterministic schedule.
			if s.fill.Reserved() {
				e.cache.Invalidate(s.key.Table, s.key.Row)
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("engine: row %d of table %d: %w", s.key.Row, s.key.Table, s.err)
			}
			done = sim.Max(done, s.ready)
			continue
		}
		if s.fill.Reserved() {
			// Copy the read bytes in (global order; recency untouched; a
			// no-op if a later reservation took the slot).
			e.cache.Fill(s.fill, s.data)
		}
		if materialize {
			model.AccumulateEV(vecs[s.vec], s.data)
		}
		_, sumDone := e.sum.Acquire(s.ready, sumOcc)
		done = sim.Max(done, sumDone)
	}
	if done < maxIssue {
		done = maxIssue
	}
	e.slots = slots[:0]
	return pooled, done, firstErr
}
