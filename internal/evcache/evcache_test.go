package evcache

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"rmssd/internal/params"
)

func vecOf(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

func TestByteBudgetToEntries(t *testing.T) {
	c := New(1024, 128)
	if c.CapEntries() != 8 {
		t.Fatalf("cap = %d, want 8", c.CapEntries())
	}
	if c := New(100, 128); c.CapEntries() != 0 {
		t.Fatalf("sub-vector budget must admit nothing, cap = %d", c.CapEntries())
	}
	if c := New(-1, 128); c.CapEntries() != 0 {
		t.Fatalf("negative budget must admit nothing, cap = %d", c.CapEntries())
	}
}

func TestGetMissReserveFill(t *testing.T) {
	c := New(4*128, 128)
	if _, ok := c.Get(0, 7); ok {
		t.Fatal("empty cache must miss")
	}
	h := c.Reserve(0, 7)
	if !h.Reserved() || c.Filled(h) || c.Data(h) != nil {
		t.Fatalf("reserve returned %+v (filled %v)", h, c.Filled(h))
	}
	// In-flight merge: a Get before Fill is a hit on the unfilled entry.
	got, ok := c.Get(0, 7)
	if !ok || got != h || c.Filled(got) {
		t.Fatalf("get during flight = %v, %v", got, ok)
	}
	data := vecOf(3, 128)
	c.Fill(h, data)
	data[0] = 99 // the cache holds a copy, not the caller's buffer
	got, ok = c.Get(0, 7)
	if !ok || !c.Filled(got) || !bytes.Equal(c.Data(got), vecOf(3, 128)) {
		t.Fatal("filled entry must return a copy of the deposited bytes")
	}
	if d := c.Data(got); cap(d) != len(d) {
		t.Fatalf("data window has spare capacity %d: an append would overwrite a neighbour", cap(d)-len(d))
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(2*128, 128)
	c.Fill(c.Reserve(0, 1), vecOf(1, 128))
	c.Fill(c.Reserve(0, 2), vecOf(2, 128))
	c.Get(0, 1) // refresh 1; 2 is now LRU
	c.Fill(c.Reserve(0, 3), vecOf(3, 128))
	if _, ok := c.Get(0, 2); ok {
		t.Fatal("row 2 should have been evicted")
	}
	if _, ok := c.Get(0, 1); !ok {
		t.Fatal("row 1 was refreshed and must survive")
	}
	if _, ok := c.Get(0, 3); !ok {
		t.Fatal("row 3 was just inserted and must survive")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func TestReserveExistingRefreshes(t *testing.T) {
	c := New(2*128, 128)
	h1 := c.Reserve(0, 1)
	c.Fill(h1, vecOf(1, 128))
	c.Fill(c.Reserve(0, 2), vecOf(2, 128))
	if h := c.Reserve(0, 1); h != h1 {
		t.Fatal("reserving a present key must return the existing entry")
	}
	c.Fill(c.Reserve(0, 3), vecOf(3, 128)) // evicts 2, not the refreshed 1
	if _, ok := c.Get(0, 1); !ok {
		t.Fatal("refreshed entry evicted")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4*128, 128)
	c.Fill(c.Reserve(1, 5), vecOf(9, 128))
	if !c.Invalidate(1, 5) {
		t.Fatal("invalidate must report a resident entry")
	}
	if c.Invalidate(1, 5) {
		t.Fatal("second invalidate must miss")
	}
	if _, ok := c.Get(1, 5); ok {
		t.Fatal("invalidated entry still resident")
	}
}

func TestZeroCapReserveNil(t *testing.T) {
	c := New(0, 128)
	if h := c.Reserve(0, 0); h.Reserved() {
		t.Fatal("zero-cap cache must not reserve")
	}
	if _, ok := c.Get(0, 0); ok {
		t.Fatal("zero-cap cache must miss")
	}
	c.Fill(Handle{}, vecOf(1, 128)) // filling the zero Handle is a no-op
	if c.Len() != 0 {
		t.Fatal("zero-cap cache admitted an entry")
	}
}

// TestStaleHandleFillIsNoOp: a handle whose entry was evicted and whose slot
// a later reservation reused must not write into the new occupant — the case
// of a lookup batch with more misses than the cache has entries.
func TestStaleHandleFillIsNoOp(t *testing.T) {
	c := New(128, 128) // one entry
	stale := c.Reserve(0, 1)
	fresh := c.Reserve(0, 2) // evicts row 1 and reuses its slot
	if c.Filled(stale) || c.Data(stale) != nil {
		t.Fatal("stale handle must read as unfilled")
	}
	c.Fill(stale, vecOf(1, 128))
	if c.Filled(fresh) {
		t.Fatal("stale fill marked the slot's new occupant filled")
	}
	c.Fill(fresh, vecOf(2, 128))
	c.Fill(stale, vecOf(1, 128))
	h, ok := c.Get(0, 2)
	if !ok || !bytes.Equal(c.Data(h), vecOf(2, 128)) {
		t.Fatal("stale fill overwrote the new occupant's bytes")
	}
	// The same key reserved again after an invalidate gets a new handle too.
	c.Invalidate(0, 2)
	again := c.Reserve(0, 2)
	c.Fill(fresh, vecOf(7, 128))
	if c.Filled(again) {
		t.Fatal("handle from before the invalidate filled the re-reserved entry")
	}
}

func TestHitTimingSerializesOnPort(t *testing.T) {
	c := New(4*128, 128)
	occ := params.Duration(params.EVCacheHitCycles(128))
	d1 := c.Hit(0)
	if d1 != occ {
		t.Fatalf("first hit done = %v, want %v", d1, occ)
	}
	// A second hit issued at the same instant queues behind the first.
	if d2 := c.Hit(0); d2 != 2*occ {
		t.Fatalf("second hit done = %v, want %v", d2, 2*occ)
	}
	c.ResetTime()
	if d := c.Hit(0); d != occ {
		t.Fatalf("after ResetTime hit done = %v, want %v", d, occ)
	}
}

func TestHitFarCheaperThanFlash(t *testing.T) {
	for _, ev := range []int{128, 256, 512} {
		hit := params.EVCacheHitCycles(ev)
		flash := params.EVReadCycles(ev)
		if hit*100 > flash {
			t.Fatalf("EVsize %d: hit %d cycles vs C_EV %d — cache not ≪ flash", ev, hit, flash)
		}
	}
}

func TestHitRatioAndReset(t *testing.T) {
	c := New(4*128, 128)
	c.Fill(c.Reserve(0, 1), vecOf(1, 128))
	c.Get(0, 1)
	c.Get(0, 2)
	if hr := c.HitRatio(); hr != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", hr)
	}
	c.ResetStats()
	if c.Stats() != (Stats{}) || c.HitRatio() != 0 {
		t.Fatal("reset must zero counters")
	}
	if c.Len() != 1 {
		t.Fatal("reset must keep contents")
	}
}

// TestHugeBudgetAllocatesOnlyResident: rmserve accepts budgets up to 2^20
// MiB per shard, so neither New nor the first Reserves may size anything by
// the budget — memory follows the resident entries.
func TestHugeBudgetAllocatesOnlyResident(t *testing.T) {
	var before, mid, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := New(1<<40, 128)
	runtime.ReadMemStats(&mid)
	if got := mid.TotalAlloc - before.TotalAlloc; got > 4<<10 {
		t.Fatalf("New with a 2^40-byte budget allocated %d bytes", got)
	}
	vec := vecOf(5, 128)
	for r := int64(0); r < 16; r++ {
		c.Fill(c.Reserve(0, r), vec)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - mid.TotalAlloc; got > 256<<10 {
		t.Fatalf("16 reservations under a 2^40-byte budget allocated %d bytes", got)
	}
	if c.Len() != 16 {
		t.Fatalf("len = %d, want 16", c.Len())
	}
}

// refCache is the list+map LRU this package shipped before the slab: every
// entry is a *refEntry in a container/list element, Fill stores the caller's
// slice, and an evicted entry simply detaches (filling it changes nothing
// the cache can see). It is the oracle for the slab cache's semantics.
type refCache struct {
	capEntries int
	lru        *list.List // front = most recently used
	index      map[Key]*list.Element
	stats      Stats
}

type refEntry struct {
	key    Key
	data   []byte
	filled bool
}

func newRef(capEntries int) *refCache {
	return &refCache{capEntries: capEntries, lru: list.New(), index: make(map[Key]*list.Element)}
}

func (c *refCache) get(k Key) (*refEntry, bool) {
	if el, ok := c.index[k]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*refEntry), true
	}
	c.stats.Misses++
	return nil, false
}

func (c *refCache) reserve(k Key) *refEntry {
	if el, ok := c.index[k]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*refEntry)
	}
	if c.capEntries <= 0 {
		return nil
	}
	for c.lru.Len() >= c.capEntries {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.index, oldest.Value.(*refEntry).key)
		c.stats.Evictions++
	}
	e := &refEntry{key: k}
	c.index[k] = c.lru.PushFront(e)
	return e
}

func (c *refCache) invalidate(k Key) bool {
	el, ok := c.index[k]
	if !ok {
		return false
	}
	c.lru.Remove(el)
	delete(c.index, k)
	return true
}

func (c *refCache) order() []Key {
	var keys []Key
	for el := c.lru.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*refEntry).key)
	}
	return keys
}

// order walks the slab's recency list from most to least recently used.
func (c *Cache) order() []Key {
	var keys []Key
	for i := c.head; i != noSlot; i = c.slots[i].next {
		keys = append(keys, c.slots[i].key)
	}
	return keys
}

// checkAgainstRef decodes ops into a Get/Reserve/Fill/Invalidate sequence,
// drives the slab cache and the reference LRU with it, and fails on the
// first divergence in outcomes, bytes, Stats, Len or recency (eviction)
// order. Reservations are remembered so later fills may go through handles
// that have since gone stale. The first byte picks the capacity (0..7
// entries).
func checkAgainstRef(t *testing.T, evSize int, ops []byte) {
	t.Helper()
	if len(ops) == 0 {
		return
	}
	capEntries := int(ops[0] % 8)
	slab := New(int64(capEntries*evSize), evSize)
	ref := newRef(capEntries)
	type reservation struct {
		h Handle
		e *refEntry
	}
	var held []reservation
	fills := 0
	for step, i := 0, 1; i+1 < len(ops); step, i = step+1, i+2 {
		op, arg := ops[i]%4, ops[i+1]
		k := Key{Table: int(arg>>3) & 1, Row: int64(arg & 7)}
		where := fmt.Sprintf("step %d (op %d, key %v, cap %d, evSize %d)", step, op, k, capEntries, evSize)
		switch op {
		case 0:
			h, ok := slab.Get(k.Table, k.Row)
			e, rok := ref.get(k)
			if ok != rok {
				t.Fatalf("%s: get hit %v, reference %v", where, ok, rok)
			}
			if ok {
				if slab.Filled(h) != e.filled {
					t.Fatalf("%s: filled %v, reference %v", where, slab.Filled(h), e.filled)
				}
				if got := slab.Data(h); !bytes.Equal(got, e.data) || (got == nil) != (e.data == nil) {
					t.Fatalf("%s: data %v, reference %v", where, got, e.data)
				}
			}
		case 1:
			h := slab.Reserve(k.Table, k.Row)
			e := ref.reserve(k)
			if h.Reserved() != (e != nil) {
				t.Fatalf("%s: reserved %v, reference %v", where, h.Reserved(), e != nil)
			}
			if e != nil {
				held = append(held, reservation{h, e})
			}
		case 2:
			if len(held) == 0 {
				continue
			}
			r := held[int(arg)%len(held)]
			fills++
			data := make([]byte, evSize)
			binary.LittleEndian.PutUint32(data, uint32(fills))
			slab.Fill(r.h, data)
			r.e.data, r.e.filled = data, true
		case 3:
			if got, want := slab.Invalidate(k.Table, k.Row), ref.invalidate(k); got != want {
				t.Fatalf("%s: invalidate %v, reference %v", where, got, want)
			}
		}
		if slab.Stats() != ref.stats || slab.Len() != ref.lru.Len() {
			t.Fatalf("%s: stats %+v len %d, reference %+v len %d", where, slab.Stats(), slab.Len(), ref.stats, ref.lru.Len())
		}
		if got, want := slab.order(), ref.order(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: recency order %v, reference %v", where, got, want)
		}
	}
}

// TestSlabMatchesReference runs seeded random operation sequences against
// the slab cache and the list+map reference, across every capacity the
// decoder produces (0, 1 and 2 entries included). Every fourth sequence uses
// vectors of almost half a storage chunk, so slots span several chunks and
// odd capacities end on a partial one.
func TestSlabMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 400; seq++ {
		ops := make([]byte, 1+2*(50+rng.Intn(150)))
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		ops[0] = byte(seq)
		evSize := 8
		if seq%4 == 3 {
			evSize = chunkBytes/2 - 8
		}
		checkAgainstRef(t, evSize, ops)
	}
}

// FuzzEVCacheOps drives checkAgainstRef with arbitrary operation streams.
func FuzzEVCacheOps(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1, 2, 2, 0, 0, 1})             // one entry: evict before fill
	f.Add([]byte{2, 1, 0, 1, 1, 1, 2, 0, 0, 2, 1, 0, 1}) // two entries, refill
	f.Add([]byte{0, 1, 3, 0, 3, 2, 0, 3, 3})             // zero capacity
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 513 { // 256 operations
			ops = ops[:513]
		}
		checkAgainstRef(t, 8, ops)
	})
}

// BenchmarkEVCacheHit measures the host cost of the cache hit path: one Get
// plus the port acquire. Tracked in BENCH_simcore.json.
func BenchmarkEVCacheHit(b *testing.B) {
	c := New(1024*128, 128)
	for r := int64(0); r < 64; r++ {
		c.Fill(c.Reserve(0, r), make([]byte, 128))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(0, int64(i%64)); !ok {
			b.Fatal("unexpected miss")
		}
		c.Hit(0)
	}
}

// BenchmarkEVCacheMissFill measures a steady-state miss on a full cache: the
// Get misses, the Reserve evicts the LRU entry, the Fill copies one vector
// in. Tracked in BENCH_simcore.json as evcache_miss_fill.
func BenchmarkEVCacheMissFill(b *testing.B) {
	const capEntries = 1024
	c := New(capEntries*128, 128)
	vec := make([]byte, 128)
	for r := int64(0); r < capEntries; r++ {
		c.Fill(c.Reserve(0, r), vec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := int64(capEntries + i)
		if _, ok := c.Get(0, row); ok {
			b.Fatal("unexpected hit")
		}
		c.Fill(c.Reserve(0, row), vec)
	}
}
