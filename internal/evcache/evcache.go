// Package evcache implements the device-DRAM embedding-vector cache: a
// deterministic, byte-budgeted LRU over vector-grained entries sitting
// between the Embedding Lookup Engine and the flash array.
//
// The controller's off-chip DRAM (Section V: 64 GB DDR4, 64-byte data width)
// is orders of magnitude faster than a C_EV flash read, and recommendation
// traffic is heavily skewed (Section III-B2, Fig. 4): a small hot set absorbs
// most lookups. Holding those hot vectors in device DRAM turns their reads
// into params.EVCacheHitCycles-cycle DRAM bursts — the same locality the
// paper's Fig. 14 sensitivity sweep and the RecSSD baseline's host cache
// exploit, but without crossing the host interface.
//
// The cache tracks presence only. Its timing depends only on which vectors
// are resident, and the bytes a hit returns are the bytes a flash read of
// the same address would return, which the device's page store supplies
// for any address (from its filler, or from a written page). So no vector
// bytes are kept here: a reader of a hit resolves them from the device
// (ssd.Device.PeekRangeInto), untimed. Entries live in an LRU (lru.go): the
// package's presence-keyed slab, which every keyed cache in the simulator
// shares (hostio's page cache sits on it too). A resident entry costs its
// 24-byte slot and about 4 bytes of index, however large the budget. Keys
// pack into one word, so a table must lie in [0, 1<<16) and a row in
// [0, 1<<48): a key outside that range is never resident (Get and
// Invalidate miss it) and Reserve panics on it.
//
// Reserve hands out a Handle naming the slot and its generation. Evicting or
// invalidating an entry bumps its slot's generation, so a handle that
// outlives its entry — reserved early in a lookup batch, then evicted by a
// later reservation of the same batch — is stale: Fill through it is a no-op
// and the slot's next occupant is untouched.
//
// Determinism contract (relied on by engine's lane-parallel lookup path):
// every state mutation — recency moves in Get, insertion and eviction in
// Reserve, port scheduling in Hit — happens on the caller's goroutine in the
// caller's order; Fill only marks an already-placed entry filled and
// touches neither recency nor the index, so it may run in any phase of a
// batch without perturbing LRU state. The hash is seed-free and the index is
// plain arrays, never a Go map: identical call sequences produce identical
// hits, misses, evictions and chains.
//
// MSHR semantics: a miss Reserves its entry immediately (at plan time), so a
// later lookup of the same key in the same batch Gets the reserved entry and
// is merged with the in-flight flash read instead of issuing its own — the
// engine resolves its data and ready time from the owning miss. Fill marks
// the end of that miss.
package evcache

import (
	"rmssd/internal/params"
	"rmssd/internal/sim"
)

// Key identifies one embedding vector. The cache holds only keys with
// 0 <= Table < 1<<16 and 0 <= Row < 1<<48 (see LRU).
type Key struct {
	Table int
	Row   int64
}

// Stats counts cache activity. A Get that lands on a still-unfilled reserved
// entry (an in-flight miss merge) counts as a hit: the flash read it rides
// was already charged to the reserving miss.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Handle names one entry's slot as of its reservation. The zero Handle names
// nothing (Reserve on a cache that cannot hold a vector returns it).
type Handle struct {
	ref uint32 // slot index + 1; 0 = no slot
	gen uint32 // the slot's generation when the handle was issued
}

// Reserved reports whether the handle came from a successful Reserve (it may
// since have gone stale).
func (h Handle) Reserved() bool { return h.ref != 0 }

// Cache is the device-DRAM EV cache. It is not safe for concurrent use; the
// lookup engine drives it from its sequential plan phase only.
type Cache struct {
	lru    LRU
	port   *sim.Resource // DRAM read port serving hit transfers
	hitOcc sim.Time      // per-hit port occupancy (params.EVCacheHitCycles)
	stats  Stats
}

// New builds a cache bounded to budgetBytes of evSize-byte vectors. A budget
// below one vector yields a cache that never admits (every Get misses and
// Reserve returns the zero Handle). Slot indices are int32, so the capacity
// saturates at math.MaxInt32 entries (256 GiB of 128-byte vectors). evSize
// also sizes a hit's DRAM burst.
func New(budgetBytes int64, evSize int) *Cache {
	if evSize <= 0 {
		panic("evcache: non-positive vector size")
	}
	return &Cache{
		lru:    NewLRU(int(budgetBytes / int64(evSize))),
		port:   sim.NewResource("evcache.dram"),
		hitOcc: params.Duration(params.EVCacheHitCycles(evSize)),
	}
}

// CapEntries returns the entry capacity implied by the byte budget.
func (c *Cache) CapEntries() int { return c.lru.Cap() }

// Len returns the number of resident entries (filled or reserved).
func (c *Cache) Len() int { return c.lru.Len() }

// Get looks the key up, refreshing its recency and counting a hit or miss.
// The returned entry may still be unfilled: that is an in-flight miss from
// the current batch, which the caller merges with (MSHR) rather than
// re-reading. An unrepresentable key misses.
func (c *Cache) Get(table int, row int64) (Handle, bool) {
	if i := c.lru.find(Key{table, row}); i != noSlot {
		c.lru.touch(i)
		c.stats.Hits++
		return c.handle(i), true
	}
	c.stats.Misses++
	return Handle{}, false
}

// Reserve inserts an unfilled entry for the key as most recently used,
// evicting the least recently used entry when full, and returns its handle
// for a later Fill. It returns the zero Handle when the cache cannot hold a
// single vector. Reserving an already-present key refreshes it and returns
// the existing entry's handle. It panics on an unrepresentable key: callers
// reserve only keys their translator has validated.
func (c *Cache) Reserve(table int, row int64) Handle {
	i, _, evicted := c.lru.access(Key{table, row})
	if i == noSlot {
		return Handle{}
	}
	if evicted {
		c.stats.Evictions++
	}
	return c.handle(i)
}

// Fill marks the handle's entry filled: its flash read has completed, so
// the entry now serves hits rather than merging in-flight misses. A stale
// handle — its entry was evicted or invalidated since Reserve — makes Fill
// a no-op. Fill does not touch recency or the index, so it is safe to call
// from any phase of a lookup batch.
func (c *Cache) Fill(h Handle) {
	if i, ok := c.live(h); ok {
		c.lru.slots[i].gen |= filledBit
	}
}

// Filled reports whether the handle's entry has been filled; false for a
// stale handle.
func (c *Cache) Filled(h Handle) bool {
	i, ok := c.live(h)
	return ok && c.lru.slots[i].gen&filledBit != 0
}

// Invalidate drops the key's entry, reporting whether one was resident. The
// device calls it when a vector is overwritten through the block path (the
// controller's copy would be stale, so the next read goes to flash), and the
// lookup engine when a read it reserved the entry for fails. An
// unrepresentable key is never resident.
func (c *Cache) Invalidate(table int, row int64) bool {
	i := c.lru.find(Key{table, row})
	if i == noSlot {
		return false
	}
	c.lru.remove(i)
	return true
}

// Hit schedules one hit's DRAM burst on the cache port at time at and
// returns its completion. The port is FCFS, so hits issued in plan order
// serialize deterministically, modeling the single DRAM read channel.
func (c *Cache) Hit(at sim.Time) sim.Time {
	_, done := c.port.Acquire(at, c.hitOcc)
	return done
}

// HitOccupancy returns how long one hit holds the DRAM port.
func (c *Cache) HitOccupancy() sim.Time { return c.hitOcc }

// ResetTime idles the DRAM port (between experiment phases).
func (c *Cache) ResetTime() { c.port.Reset() }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters, keeping contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// HitRatio returns hits/(hits+misses), or 0 before any traffic.
func (c *Cache) HitRatio() float64 {
	total := c.stats.Hits + c.stats.Misses
	if total == 0 {
		return 0
	}
	return float64(c.stats.Hits) / float64(total)
}

func (c *Cache) handle(i int32) Handle {
	return Handle{ref: uint32(i) + 1, gen: c.lru.slots[i].gen &^ filledBit}
}

// live resolves a handle to its slot if the handle is still current.
func (c *Cache) live(h Handle) (int32, bool) {
	if h.ref == 0 {
		return 0, false
	}
	i := int32(h.ref - 1)
	return i, c.lru.slots[i].gen&^filledBit == h.gen
}
