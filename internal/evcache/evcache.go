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
// Storage is one pointer-free slab. Each entry occupies a slot: a 32-byte
// record holding its Key, its recency links and its hash-chain link (slot
// indices, not pointers) and its generation and fill state, plus an
// evSize-byte window of a storage chunk. Chunks are allocated as slots are
// first used, so a cache costs only what is resident however large its
// budget. The index is part of the slab too: a power-of-two array of bucket
// heads, each the first slot of a chain linked through the slots, keyed by a
// fixed 64-bit mix of the Key. The bucket array doubles (rehashing every
// chain) whenever the resident count reaches its length, up to the capacity
// rounded up to a power of two, so chains average at most one slot and the
// index costs about 4 bytes per resident entry. Fill copies the read bytes into the
// slot's window: the buffer a flash read returned (on a linear device a fresh
// buffer synthesised per miss) is never retained.
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
// caller's order; Fill only deposits bytes into an already-placed entry and
// touches neither recency nor the index, so it may run in any phase of a
// batch without perturbing LRU state. The hash is seed-free and the index is
// plain arrays, never a Go map: identical call sequences produce identical
// hits, misses, evictions, chains and contents.
//
// MSHR semantics: a miss Reserves its entry immediately (at plan time), so a
// later lookup of the same key in the same batch Gets the reserved entry and
// is merged with the in-flight flash read instead of issuing its own — the
// engine resolves its data and ready time from the owning miss.
package evcache

import (
	"fmt"
	"math"
	"math/bits"

	"rmssd/internal/params"
	"rmssd/internal/sim"
)

// Key identifies one embedding vector.
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

// chunkBytes sizes one storage chunk (rounded down to whole vectors).
const chunkBytes = 64 << 10

// noSlot terminates the recency list, the free list and the hash chains, and
// marks an empty bucket. offChain is a free slot's chain link: it is on no
// chain.
const (
	noSlot   = -1
	offChain = -2
)

// minBuckets is the bucket array's length once the first entry arrives.
const minBuckets = 8

// A slot's gen packs its fill state into bit 0 and its generation into the
// bits above: when the entry leaves, gen advances by genStep, which also
// clears filledBit, and every handle issued before goes stale.
const (
	filledBit = 1
	genStep   = 2
)

// slot is one entry's bookkeeping: 32 bytes holding no pointers, so the slot
// array is invisible to the garbage collector's scan.
type slot struct {
	key        Key
	prev, next int32  // recency neighbours (free list: next only)
	hnext      int32  // next slot in the key's bucket chain
	gen        uint32 // generation<<1 | filled
}

// Cache is the device-DRAM EV cache. It is not safe for concurrent use; the
// lookup engine drives it from its sequential plan phase only.
type Cache struct {
	capEntries int
	evSize     int
	perChunk   int      // vectors per storage chunk
	chunks     [][]byte // vector bytes: slot i at chunks[i/perChunk]
	slots      []slot
	buckets    []int32       // hash-chain heads, power-of-two length
	maxBuckets int           // bucket array growth ceiling
	head, tail int32         // most / least recently used; noSlot when empty
	free       int32         // released slots, linked through next
	n          int           // resident entries
	port       *sim.Resource // DRAM read port serving hit transfers
	hitOcc     sim.Time      // per-hit port occupancy (params.EVCacheHitCycles)
	stats      Stats
}

// New builds a cache bounded to budgetBytes of evSize-byte vectors. A budget
// below one vector yields a cache that never admits (every Get misses and
// Reserve returns the zero Handle). Slot indices are int32, so the capacity
// saturates at math.MaxInt32 entries (256 GiB of 128-byte vectors). New
// allocates no vector storage.
func New(budgetBytes int64, evSize int) *Cache {
	if evSize <= 0 {
		panic("evcache: non-positive vector size")
	}
	c := &Cache{
		evSize: evSize,
		head:   noSlot,
		tail:   noSlot,
		free:   noSlot,
		port:   sim.NewResource("evcache.dram"),
		hitOcc: params.Duration(params.EVCacheHitCycles(evSize)),
	}
	if budgetBytes > 0 {
		c.capEntries = int(min(budgetBytes/int64(evSize), math.MaxInt32))
	}
	c.perChunk = max(1, min(chunkBytes/evSize, c.capEntries))
	c.maxBuckets = 1 << bits.Len(uint(max(c.capEntries-1, 0)))
	return c
}

// CapEntries returns the entry capacity implied by the byte budget.
func (c *Cache) CapEntries() int { return c.capEntries }

// EVSize returns the vector size the budget was divided by.
func (c *Cache) EVSize() int { return c.evSize }

// Len returns the number of resident entries (filled or reserved).
func (c *Cache) Len() int { return c.n }

// Get looks the key up, refreshing its recency and counting a hit or miss.
// The returned entry may still be unfilled: that is an in-flight miss from
// the current batch, which the caller merges with (MSHR) rather than
// re-reading.
func (c *Cache) Get(table int, row int64) (Handle, bool) {
	if i := c.find(Key{table, row}); i != noSlot {
		c.touch(i)
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
// the existing entry's handle.
func (c *Cache) Reserve(table int, row int64) Handle {
	key := Key{table, row}
	if i := c.find(key); i != noSlot {
		c.touch(i)
		return c.handle(i)
	}
	if c.capEntries <= 0 {
		return Handle{}
	}
	if c.n == c.capEntries {
		c.release(c.tail)
		c.stats.Evictions++
	}
	if c.n == len(c.buckets) && c.n < c.maxBuckets {
		c.growIndex()
	}
	i := c.alloc()
	c.slots[i].key = key
	c.pushFront(i)
	c.link(i)
	c.n++
	debugIndex(c)
	return c.handle(i)
}

// Fill copies one vector's bytes, as read from flash, into the handle's
// entry. A stale handle — its entry was evicted or invalidated since
// Reserve — makes Fill a no-op. Fill does not touch recency or the index, so
// it is safe to call from any phase of a lookup batch.
func (c *Cache) Fill(h Handle, data []byte) {
	i, ok := c.live(h)
	if !ok {
		return
	}
	if len(data) != c.evSize {
		panic(fmt.Sprintf("evcache: fill of %d bytes, want %d", len(data), c.evSize))
	}
	copy(c.window(i), data)
	c.slots[i].gen |= filledBit
}

// Filled reports whether the handle's entry has been filled; false for a
// stale handle.
func (c *Cache) Filled(h Handle) bool {
	i, ok := c.live(h)
	return ok && c.slots[i].gen&filledBit != 0
}

// Data returns the handle's cached bytes: nil until Fill and for a stale
// handle. The slice aliases the slab, so it holds the entry's bytes until
// the entry leaves and its slot is refilled.
func (c *Cache) Data(h Handle) []byte {
	i, ok := c.live(h)
	if !ok || c.slots[i].gen&filledBit == 0 {
		return nil
	}
	return c.window(i)
}

// Invalidate drops the key's entry, reporting whether one was resident. The
// embedding store calls it when a vector is overwritten through the block
// path, so cached bytes never go stale.
func (c *Cache) Invalidate(table int, row int64) bool {
	i := c.find(Key{table, row})
	if i == noSlot {
		return false
	}
	c.release(i)
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
	return Handle{ref: uint32(i) + 1, gen: c.slots[i].gen &^ filledBit}
}

// live resolves a handle to its slot if the handle is still current.
func (c *Cache) live(h Handle) (int32, bool) {
	if h.ref == 0 {
		return 0, false
	}
	i := int32(h.ref - 1)
	return i, c.slots[i].gen&^filledBit == h.gen
}

// window is slot i's evSize-byte storage, capacity-clipped so an append
// through it cannot spill into the neighbouring slot.
func (c *Cache) window(i int32) []byte {
	off := int(i) % c.perChunk * c.evSize
	return c.chunks[int(i)/c.perChunk][off : off+c.evSize : off+c.evSize]
}

// alloc returns a free slot, taking a released one first and otherwise
// appending a new one, growing the slot array and the storage chunks only as
// far as the capacity needs.
func (c *Cache) alloc() int32 {
	if i := c.free; i != noSlot {
		c.free = c.slots[i].next
		return i
	}
	i := len(c.slots)
	if i == cap(c.slots) {
		grown := make([]slot, i, min(max(2*i, 64), c.capEntries))
		copy(grown, c.slots)
		c.slots = grown
	}
	c.slots = append(c.slots, slot{})
	if i%c.perChunk == 0 {
		vecs := min(c.perChunk, c.capEntries-i)
		c.chunks = append(c.chunks, make([]byte, vecs*c.evSize))
	}
	return int32(i)
}

// release removes slot i's entry: it leaves the recency list and its hash
// chain, its handles go stale, and the slot joins the free list.
func (c *Cache) release(i int32) {
	c.unlink(i)
	c.unhash(i)
	s := &c.slots[i]
	s.hnext = offChain
	s.gen = s.gen&^filledBit + genStep
	s.next = c.free
	c.free = i
	c.n--
	debugIndex(c)
}

// hashKey mixes a Key into 64 well-spread bits (the MurmurHash3 finalizer
// over the row folded with the golden-ratio-scaled table). It is fixed and
// seed-free, so chain order, like everything else, is reproducible.
func hashKey(k Key) uint64 {
	h := uint64(k.Row) ^ uint64(k.Table)*0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// bucket returns the bucket array position of key's chain.
func (c *Cache) bucket(k Key) int {
	return int(hashKey(k) & uint64(len(c.buckets)-1))
}

// find returns the slot holding key, or noSlot.
func (c *Cache) find(k Key) int32 {
	if len(c.buckets) == 0 {
		return noSlot
	}
	i := c.buckets[c.bucket(k)]
	for i != noSlot && c.slots[i].key != k {
		i = c.slots[i].hnext
	}
	return i
}

// link pushes slot i onto the front of its key's chain.
func (c *Cache) link(i int32) {
	b := c.bucket(c.slots[i].key)
	c.slots[i].hnext = c.buckets[b]
	c.buckets[b] = i
}

// unhash removes slot i from its key's chain.
func (c *Cache) unhash(i int32) {
	p := &c.buckets[c.bucket(c.slots[i].key)]
	for *p != i {
		p = &c.slots[*p].hnext
	}
	*p = c.slots[i].hnext
}

// growIndex doubles the bucket array (to minBuckets from empty, never past
// maxBuckets) and relinks every chain into it.
func (c *Cache) growIndex() {
	old := c.buckets
	c.buckets = make([]int32, min(max(2*len(old), minBuckets), c.maxBuckets))
	for b := range c.buckets {
		c.buckets[b] = noSlot
	}
	for _, i := range old {
		for i != noSlot {
			next := c.slots[i].hnext
			c.link(i)
			i = next
		}
	}
}

// touch makes slot i the most recently used.
func (c *Cache) touch(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}

func (c *Cache) pushFront(i int32) {
	s := &c.slots[i]
	s.prev, s.next = noSlot, c.head
	if c.head != noSlot {
		c.slots[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

func (c *Cache) unlink(i int32) {
	s := &c.slots[i]
	if s.prev != noSlot {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next != noSlot {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

// indexErr checks the hash index against the slab: every resident slot's
// key finds that slot, the chains hold exactly the n resident slots, and no
// free slot is reachable from a bucket. It walks the whole cache without
// allocating, so the simdebug layer can run it after every insertion and
// removal.
func (c *Cache) indexErr() error {
	free := 0
	for i := c.free; i != noSlot; i = c.slots[i].next {
		if c.slots[i].hnext != offChain {
			return fmt.Errorf("free slot %d still carries a chain link", i)
		}
		if free++; free > len(c.slots) {
			return fmt.Errorf("free list cycles")
		}
	}
	if c.n+free != len(c.slots) {
		return fmt.Errorf("%d resident + %d free slots, %d allocated", c.n, free, len(c.slots))
	}
	chained := 0
	for b, head := range c.buckets {
		for i := head; i != noSlot; i = c.slots[i].hnext {
			k := c.slots[i].key
			if c.slots[i].hnext == offChain {
				return fmt.Errorf("free slot %d reachable from bucket %d", i, b)
			}
			if c.bucket(k) != b {
				return fmt.Errorf("slot %d (key %v) chained from bucket %d, hashes to %d", i, k, b, c.bucket(k))
			}
			// find walks this chain from its head: nothing before i may
			// hold i's key.
			for j := head; j != i; j = c.slots[j].hnext {
				if c.slots[j].key == k {
					return fmt.Errorf("slot %d (key %v) shadowed by slot %d", i, k, j)
				}
			}
			if chained++; chained > c.n {
				return fmt.Errorf("chains hold more than the %d resident slots", c.n)
			}
		}
	}
	// Chained slots are distinct, non-free and n in number, so they are
	// exactly the resident ones, and each finds itself.
	if chained != c.n {
		return fmt.Errorf("chains hold %d slots, %d resident", chained, c.n)
	}
	return nil
}
