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
// Every state mutation (recency moves in Get, insertion and eviction in
// Reserve, port scheduling in Hit) happens on the caller's goroutine in the
// caller's order. The hash is seed-free and the index is plain arrays, never
// a Go map: identical call sequences produce identical hits, misses,
// evictions and chains.
//
// A miss Reserves its entry at once, so a resident entry may still be in
// flight. The cache does not record which: the lookup planner, which
// reserves only on a miss of the batch it is planning, tracks its own
// in-flight misses (engine's owners map).
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

// Stats counts cache activity. A Get that lands on an entry whose read is
// still in flight (an MSHR merge) counts as a hit: the flash read it rides
// was already charged to the reserving miss.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Cache is the device-DRAM EV cache. It is not safe for concurrent use; the
// lookup engine drives it from its sequential plan phase only.
type Cache struct {
	lru    LRU
	port   *sim.Resource // DRAM read port serving hit transfers
	hitOcc sim.Time      // per-hit port occupancy (params.EVCacheHitCycles)
	stats  Stats
}

// New builds a cache bounded to budgetBytes of evSize-byte vectors. A budget
// below one vector yields a cache that never admits (every Get and Reserve
// returns false). Slot indices are int32, so the capacity saturates at
// math.MaxInt32 entries (256 GiB of 128-byte vectors). evSize also sizes a
// hit's DRAM burst.
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

// Len returns the number of resident entries.
func (c *Cache) Len() int { return c.lru.Len() }

// Get reports whether the key is resident, refreshing its recency and
// counting a hit or miss. An unrepresentable key misses.
func (c *Cache) Get(table int, row int64) bool {
	if i := c.lru.find(Key{table, row}); i != noSlot {
		c.lru.touch(i)
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// Reserve makes the key resident as most recently used, evicting the least
// recently used entry when full, and reports whether the cache admitted it:
// false only when the cache cannot hold a single vector. Reserving an
// already-present key refreshes it. It panics on an unrepresentable key:
// callers reserve only keys their translator has validated.
func (c *Cache) Reserve(table int, row int64) bool {
	i, _, evicted := c.lru.access(Key{table, row})
	if evicted {
		c.stats.Evictions++
	}
	return i != noSlot
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
