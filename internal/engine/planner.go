package engine

import (
	"fmt"

	"rmssd/internal/evcache"
	"rmssd/internal/model"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
)

// The lookup planner: the engine's one datapath (Section IV-B: translate,
// EV-FMC read, EV Sum) for a batch of inferences, and PoolBatch its one
// entry point. A single inference is a batch of one.
//
// A lookup interleaves four kinds of work: index parsing and EV translation
// (shared translator state, strict per-cycle clocking), FTL translation and
// device bookkeeping (shared device state), flash scheduling (channel-local
// resources), and EV Sum accumulation (one shared resource plus float adds
// whose order matters bit for bit). The planner therefore runs three phases:
//
//  1. plan (sequential, global order): clock the index stream, consult the
//     dedup table and the cache, schedule cache-port hits, translate and run
//     the FTL for misses (ssd.PrepareVectorRead). Every piece of shared
//     state the schedule depends on — LRU recency, reservations, evictions,
//     port and FTL bookkeeping — mutates here, in one deterministic order,
//     and a shape or row error aborts the batch before any flash read.
//  2. flash: replay every flash read in plan order (flash.Array.ReadVector)
//     and record its flush on its die's load for Loads. The channels work
//     concurrently in simulated time — each die and bus is an FCFS
//     sim.Resource of one channel — so one loop on the calling goroutine
//     hands every resource, and every channel's fault stream, its reads in
//     plan order. The phase is timing only: a read returns its schedule and
//     no bytes.
//  3. reduce (sequential, global order): replay the EV Sum unit and, when
//     values are asked for, resolve every slot's bytes — flash read, zeros,
//     cache hit or duplicate — from the device's page store (slotBytes) and
//     accumulate them in the original lookup order.
//
// Values, times and every counter are therefore independent of shard
// interleaving by construction. With no cache and dedup off this is the
// plain sequential datapath, lookup by lookup.
//
// Recommendation traffic is heavily skewed (Section III-B2), and two
// strictly value-preserving locality optimisations ride in the plan phase:
//
//   - EV cache: vectors resident in the controller's DRAM are served in
//     params.EVCacheHitCycles (~8 cycles for a 128 B vector, vs C_EV ≈ 2838)
//     over the cache's FCFS DRAM port; misses read flash as before and fill
//     the cache. The cache tracks presence only: a hit's bytes, like every
//     other slot's, come from the page store in reduce, so a hit returns
//     exactly the bytes a flash read of its address would, written pages
//     (UpdateVector, the dynamic FTL) included.
//   - Dedup: within one pooled batch, repeated (table,row) references merge
//     with the first occurrence's read. Each duplicate still contributes its
//     own term to the pooled sum (SparseLengthsSum semantics: a row listed
//     twice counts twice) and still occupies the EV Sum unit for its slot —
//     only the redundant flash/DRAM fetch disappears. Its data becomes ready
//     when the owning read's does (never before the duplicate's own issue
//     cycle), so dedup can only pull completion earlier, exactly like the
//     hardware broadcasting one returned vector to several accumulators.
//
// In-flight misses: e.owners, cleared per batch, is the only record of them.
// A cache entry is reserved only by a miss, which records its slot in
// e.owners, and every reservation is settled before the next plan (its read
// completes, or a failed read or an aborted plan invalidates it). So a
// resident entry is in flight exactly when its key has an owner in this
// batch: a cache hit on an owned key merges with the owner (MSHR), and any
// other hit is served over the DRAM port.

// slotKind says how one lookup's bytes are produced.
type slotKind uint8

const (
	slotFlash slotKind = iota // vector read from flash
	slotZero                  // unmapped page on a dynamic device: zeros
	slotHit                   // EV cache hit served over the DRAM port
	slotDup                   // merged with an earlier slot's read
)

// lkSlot is one lookup's state across the three phases, 56 bytes: the plan
// appends one per lookup, so a flash or zero slot's prepared read lives in
// the engine's reads side table rather than in every slot.
type lkSlot struct {
	vec      int32 // flat accumulator index: inference*Tables + table
	ref      int32 // slotDup: the owning slot's index; slotFlash/slotZero: its read in e.reads
	kind     slotKind
	reserved bool // slotFlash/slotZero: the miss reserved a cache entry
	key      evcache.Key
	// ready is when the slot's bytes are ready. A duplicate's holds its own
	// issue time until reduce raises it to its owner's.
	ready sim.Time
	err   error // uncorrectable read (wraps flash.ErrUncorrectable)
}

// Loads returns the most recent batch's loads on the units its lookups
// shared with neighbouring batches: one per flash die, channel-major, then
// the EV-cache port. A load's Release is the unit's first use after the
// batch's issue time (a die's first flush start, the port's first hit) and
// its Busy the unit's total occupancy for the batch (every flush, ECC
// retries included; every hit's DRAM burst). The slice is the engine's
// scratch, valid until its next batch.
func (e *LookupEngine) Loads() []sim.LaneLoad { return e.loads }

// abortPlan settles an aborted plan phase's reservations: every entry the
// plan reserved is dropped from the cache, so none survives into the next
// batch without its read.
func (e *LookupEngine) abortPlan(slots []lkSlot) {
	for i := range slots {
		if slots[i].reserved {
			e.cache.Invalidate(slots[i].key.Table, slots[i].key.Row)
		}
	}
	e.slots = slots[:0]
}

// PoolBatch performs the pooled lookups of a whole coalesced batch of
// inferences: for each table of each inference, the engine translates
// indices (one per cycle from the Index Buffer), issues vector-grained reads
// striped over channels and dies by the FTL's linear map, and accumulates
// returns in the EV Sum unit. One dedup table is shared across the batch:
// identical (table,row) references anywhere in it issue a single read when
// dedup is on. Each inference's index stream is clocked from at. With
// values it returns each inference's pooled vectors; without, it accounts
// timing and traffic only and returns nil vectors. Either way it returns
// the completion time of the whole batch.
//
// Shape and row errors (ErrShapeMismatch, ErrRowOutOfRange) abort the batch
// in the plan phase, before any flash read; callers that prevalidate with
// ValidateLookups never see them. Injected read faults
// (flash.ErrUncorrectable) do not abort: every lookup of the batch still
// issues, so the simulated timeline stays deterministic, and the first
// fault is returned, wrapped with its inference, table and row.
func (e *LookupEngine) PoolBatch(at sim.Time, sparses [][][]int64, values bool) ([][]tensor.Vector, sim.Time, error) {
	if len(sparses) == 0 {
		return nil, at, fmt.Errorf("engine: empty lookup batch: %w", ErrShapeMismatch)
	}
	cfg := e.st.Model().Cfg
	evSize := cfg.EVSize()
	sumOcc := params.Duration(e.sumCycles())
	track := e.dedup || e.cache != nil
	if track {
		if e.owners == nil {
			e.owners = make(map[evcache.Key]int32)
		} else {
			clear(e.owners)
		}
	}
	if len(e.ev) != evSize {
		e.ev = make([]byte, evSize)
	}

	// Phase 1 — sequential plan in global order.
	slots, reads := e.slots[:0], e.reads[:0]
	e.resetLoads()
	var maxIssue sim.Time
	for b, sparse := range sparses {
		if len(sparse) != cfg.Tables {
			e.abortPlan(slots)
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
						slots = append(slots, lkSlot{vec: vec, kind: slotDup, ref: own, ready: issue, key: key})
						continue
					}
				}
				if e.cache != nil && e.cache.Get(t, row) {
					// With dedup on, the lookup above found no owner.
					if !e.dedup {
						if own, ok := e.owners[key]; ok {
							// In-flight miss from this batch (MSHR merge).
							slots = append(slots, lkSlot{vec: vec, kind: slotDup, ref: own, ready: issue, key: key})
							continue
						}
					}
					// Resident vector: one DRAM burst on the port.
					ready := e.cache.Hit(issue)
					addLoad(&e.loads[len(e.loads)-1], at, ready-e.cache.HitOccupancy(), ready)
					slots = append(slots, lkSlot{vec: vec, kind: slotHit, key: key, ready: ready})
					continue
				}

				// Miss everywhere: read flash.
				addr, err := e.tr.Lookup(t, row)
				if err != nil {
					e.abortPlan(slots)
					return nil, sim.Max(issue, maxIssue), fmt.Errorf("engine: inference %d: %w", b, err)
				}
				vr := e.dev.PrepareVectorRead(issue, addr, evSize)
				reserved := e.cache != nil && e.cache.Reserve(t, row)
				ref := int32(len(reads))
				reads = append(reads, vr)
				if vr.Mapped {
					slots = append(slots, lkSlot{vec: vec, kind: slotFlash, ref: ref, reserved: reserved, key: key})
				} else {
					// Never-written page on a dynamic device: zeros at
					// translation time, no flash involvement.
					slots = append(slots, lkSlot{vec: vec, kind: slotZero, ref: ref, ready: vr.Start, reserved: reserved, key: key})
				}
				if track {
					e.owners[key] = idx
				}
			}
		}
		if issue > maxIssue {
			maxIssue = issue
		}
	}
	e.slots, e.reads = slots, reads

	// Phase 2 — flash scheduling in plan order.
	e.readFlash(at)

	// Phase 3 — sequential reduce in global order.
	var pooled [][]tensor.Vector
	var vecs []tensor.Vector
	if values {
		pooled, vecs = pooledVectors(len(sparses), cfg.Tables, cfg.EVDim)
	}
	var done sim.Time
	var firstErr error
	for i := range slots {
		s := &slots[i]
		if s.kind == slotDup {
			own := &slots[s.ref]
			s.ready = sim.Max(s.ready, own.ready)
			s.err = own.err
		}
		if s.err != nil {
			// Uncorrectable read: drop the reserved entry (a later batch
			// would otherwise hit a vector that never arrived), contribute
			// no bytes and no EV Sum term, and fail the call after the
			// reduce completes so the timeline and cache state stay on the
			// deterministic schedule.
			if s.reserved {
				e.cache.Invalidate(s.key.Table, s.key.Row)
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("engine: inference %d: row %d of table %d: %w",
					int(s.vec)/cfg.Tables, s.key.Row, s.key.Table, s.err)
			}
			done = sim.Max(done, s.ready)
			continue
		}
		if values {
			model.AccumulateEV(vecs[s.vec], e.slotBytes(s))
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

// slotBytes resolves a slot's vector into the engine's scratch vector from
// the device, untimed: a flash read's (zeros for an unmapped page) through
// its prepared read, a cache hit's at the address the translator gives,
// and a duplicate's through its owning slot. These are exactly the bytes a
// flash read of the slot's address returns. The scratch holds them until
// the next slot resolves.
func (e *LookupEngine) slotBytes(s *lkSlot) []byte {
	if s.kind == slotDup {
		s = &e.slots[s.ref]
	}
	switch s.kind {
	case slotFlash, slotZero:
		e.dev.PeekVectorInto(&e.reads[s.ref], e.ev)
	case slotHit:
		addr, err := e.tr.Lookup(s.key.Table, s.key.Row)
		if err != nil {
			// Only a translated miss reserves an entry, so a resident key
			// always translates.
			panic(fmt.Sprintf("engine: cached vector: %v", err))
		}
		e.dev.PeekRangeInto(addr, e.ev)
	}
	return e.ev
}

// resetLoads sizes the engine's Loads scratch for the device, one per die
// plus the EV-cache port, and zeroes it.
func (e *LookupEngine) resetLoads() {
	geo := e.dev.Array().Geometry()
	if n := geo.Channels*geo.DiesPerChannel + 1; len(e.loads) != n {
		e.loads = make([]sim.LaneLoad, n)
	}
	clear(e.loads)
}

// addLoad adds a use of a unit over [start, end) to its load for a batch
// issued at at. Uses arrive in start order per unit, so the first one sets
// the release.
func addLoad(ld *sim.LaneLoad, at, start, end sim.Time) {
	if ld.Busy == 0 {
		ld.Release = start - at
	}
	ld.Busy += end - start
}

// readFlash is phase 2: it replays every flash slot's read in plan order
// and adds each read's flush to its die's load. at is the batch's issue
// time, which die loads are released from.
func (e *LookupEngine) readFlash(at sim.Time) {
	arr := e.dev.Array()
	dies := arr.Geometry().DiesPerChannel
	for i := range e.slots {
		s := &e.slots[i]
		if s.kind != slotFlash {
			continue
		}
		vr := &e.reads[s.ref]
		vt, err := arr.ReadVector(vr.Start, vr.PPA, vr.Col, vr.Size)
		s.ready, s.err = vt.Done, err
		addLoad(&e.loads[vr.PPA.Channel*dies+vr.PPA.Die], at, vt.FlushStart, vt.FlushEnd)
	}
}
