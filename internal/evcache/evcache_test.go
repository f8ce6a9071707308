package evcache

import (
	"container/list"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"rmssd/internal/params"
)

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
	if !h.Reserved() || c.Filled(h) {
		t.Fatalf("reserve returned %+v (filled %v)", h, c.Filled(h))
	}
	// In-flight merge: a Get before Fill is a hit on the unfilled entry.
	got, ok := c.Get(0, 7)
	if !ok || got != h || c.Filled(got) {
		t.Fatalf("get during flight = %v, %v", got, ok)
	}
	c.Fill(h)
	got, ok = c.Get(0, 7)
	if !ok || got != h || !c.Filled(got) {
		t.Fatal("filled entry must read as filled through the same handle")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(2*128, 128)
	c.Fill(c.Reserve(0, 1))
	c.Fill(c.Reserve(0, 2))
	c.Get(0, 1) // refresh 1; 2 is now LRU
	c.Fill(c.Reserve(0, 3))
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
	c.Fill(h1)
	c.Fill(c.Reserve(0, 2))
	if h := c.Reserve(0, 1); h != h1 || !c.Filled(h) {
		t.Fatal("reserving a present key must return the existing, still filled, entry")
	}
	c.Fill(c.Reserve(0, 3)) // evicts 2, not the refreshed 1
	if _, ok := c.Get(0, 1); !ok {
		t.Fatal("refreshed entry evicted")
	}
	// Filling a present entry again keeps it filled in place.
	c.Fill(c.Reserve(0, 1))
	if h, ok := c.Get(0, 1); !ok || h != h1 || !c.Filled(h) || c.Len() != 2 {
		t.Fatal("refill must keep the entry filled without adding one")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4*128, 128)
	c.Fill(c.Reserve(1, 5))
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

// The packing's boundary: the largest table and row a key can hold.
const (
	maxTable = 1<<(64-rowBits) - 1
	maxRow   = 1<<rowBits - 1
)

// TestUnrepresentableKeysMiss: a key outside the packable range never
// matches a resident entry, even one holding the key a careless packing
// (an unchecked OR, a masked row, an overflowed table) would alias it to,
// and inserting one panics instead of aliasing.
func TestUnrepresentableKeysMiss(t *testing.T) {
	resident := []Key{{0, 5}, {1, 5}, {maxTable, 5}, {0, maxRow}, {3, maxRow}, {maxTable, maxRow}}
	c := New(16*128, 128)
	for _, k := range resident {
		c.Fill(c.Reserve(k.Table, k.Row))
	}
	for _, k := range []Key{
		{0, -1}, {3, -1}, {maxTable, -1}, // row -1
		{0, 5 + 1<<rowBits}, {1, 5 + 1<<rowBits}, {0, maxRow + 1}, // row 1<<48 and beyond
		{maxTable + 1, 5}, {maxTable + 2, 5}, {-1, 5}, // table 1<<16 and beyond, table -1
	} {
		before := c.Stats()
		if _, ok := c.Get(k.Table, k.Row); ok {
			t.Errorf("Get%v hit", k)
		}
		if got := c.Stats(); got.Hits != before.Hits || got.Misses != before.Misses+1 {
			t.Errorf("Get%v: stats %+v, want one more miss than %+v", k, got, before)
		}
		if c.lru.Contains(k) {
			t.Errorf("Contains%v reported a resident entry", k)
		}
		if c.Invalidate(k.Table, k.Row) {
			t.Errorf("Invalidate%v dropped an entry", k)
		}
		for _, insert := range []struct {
			name string
			call func()
		}{
			{"Reserve", func() { c.Reserve(k.Table, k.Row) }},
			{"Access", func() { c.lru.Access(k) }},
		} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, "evcache: ") {
						t.Errorf("%s%v: panic %q, want an evcache: panic", insert.name, k, msg)
					}
				}()
				insert.call()
			}()
		}
		if c.Len() != len(resident) {
			t.Fatalf("after %v: %d entries resident, want %d", k, c.Len(), len(resident))
		}
	}
	for _, k := range resident {
		if _, ok := c.Get(k.Table, k.Row); !ok {
			t.Errorf("resident key %v lost", k)
		}
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
	c.Fill(Handle{}) // filling the zero Handle is a no-op
	if c.Len() != 0 {
		t.Fatal("zero-cap cache admitted an entry")
	}
}

// TestStaleHandleFillIsNoOp: a handle whose entry was evicted and whose slot
// a later reservation reused must not mark the new occupant filled — the
// case of a lookup batch with more misses than the cache has entries.
func TestStaleHandleFillIsNoOp(t *testing.T) {
	c := New(128, 128) // one entry
	stale := c.Reserve(0, 1)
	fresh := c.Reserve(0, 2) // evicts row 1 and reuses its slot
	if c.Filled(stale) {
		t.Fatal("stale handle must read as unfilled")
	}
	c.Fill(stale)
	if c.Filled(fresh) || c.Filled(stale) {
		t.Fatal("stale fill marked the slot's new occupant filled")
	}
	c.Fill(fresh)
	c.Fill(stale)
	h, ok := c.Get(0, 2)
	if !ok || h != fresh || !c.Filled(h) || c.Filled(stale) {
		t.Fatal("stale fill disturbed the new occupant")
	}
	// The same key reserved again after an invalidate gets a new handle too.
	c.Invalidate(0, 2)
	again := c.Reserve(0, 2)
	c.Fill(fresh)
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
	c.Fill(c.Reserve(0, 1))
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
	for r := int64(0); r < 16; r++ {
		c.Fill(c.Reserve(0, r))
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
// entry is a *refEntry in a container/list element, Fill marks it, and an
// evicted entry simply detaches (filling it changes nothing the cache can
// see). It is the oracle for the slab cache's semantics.
type refCache struct {
	capEntries int
	lru        *list.List // front = most recently used
	index      map[Key]*list.Element
	stats      Stats
}

type refEntry struct {
	key    Key
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
func (l *LRU) order() []Key {
	var keys []Key
	for i := l.head; i != noSlot; i = l.slots[i].next {
		keys = append(keys, unpackKey(l.slots[i].key))
	}
	return keys
}

// refOp is one decoded operation for checkOps.
type refOp struct {
	op  byte // 0 Get, 1 Reserve, 2 Fill, 3 Invalidate
	key Key
	arg int // Fill: which earlier reservation to fill through
}

// wideMode marks a byte stream's first byte as selecting decodeOps's wide
// form; oneBucketBit in a wide first byte caps the index at one bucket.
const (
	wideMode     = 0x80
	oneBucketBit = 0x40
)

// decodeOps turns a byte stream into a capacity and an operation sequence,
// two bytes per operation: the first byte's low two bits pick the
// operation. A first stream byte below wideMode (the narrow form) gives the
// capacity ops[0]%8 and draws keys from 16, one per second byte. From
// wideMode on (the wide form) the capacity is (ops[0]&0x3f)*5, up to 315
// entries, oneBucketBit chains every key in one bucket, and the
// operation's upper six bits and second byte name one of 16384 keys, enough
// to grow the bucket array through several doublings. The operation byte's
// low bits above the opcode pick the table (bit 2) and the row's high bits
// (bits 3-6; the second byte is its low byte): rows 0-4095 of tables 0
// and 1. Bit 7 mirrors the key to the packing boundary, table maxTable-t
// and row maxRow-r, so those keys share chains with small ones.
func decodeOps(ops []byte) (capEntries int, oneBucket bool, seq []refOp) {
	if len(ops) == 0 {
		return 0, false, nil
	}
	wide := ops[0] >= wideMode
	capEntries = int(ops[0] % 8)
	if wide {
		capEntries, oneBucket = int(ops[0]&0x3f)*5, ops[0]&oneBucketBit != 0
	}
	for i := 1; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%4, ops[i+1]
		if !wide {
			seq = append(seq, refOp{op, Key{Table: int(arg>>3) & 1, Row: int64(arg & 7)}, int(arg)})
			continue
		}
		hi := int(ops[i] >> 2)
		k := Key{Table: hi & 1, Row: int64(hi>>1&0xf)<<8 | int64(arg)}
		if hi>>5 != 0 {
			k = Key{Table: maxTable - k.Table, Row: maxRow - k.Row}
		}
		seq = append(seq, refOp{op, k, hi<<8 | int(arg)})
	}
	return capEntries, oneBucket, seq
}

// Chain positions an entry can leave from: a lone slot is its chain's
// head and tail at once.
const (
	chainLone = iota
	chainHead
	chainMiddle
	chainTail
)

// chainPos reports where slot i sits in its bucket's chain.
func (l *LRU) chainPos(i int32) int {
	before, after := 0, 0
	for j := l.buckets[l.bucket(l.slots[i].key)]; j != i; j = l.slots[j].hnext {
		before++
	}
	for j := l.slots[i].hnext; j != noSlot; j = l.slots[j].hnext {
		after++
	}
	switch {
	case before == 0 && after == 0:
		return chainLone
	case before == 0:
		return chainHead
	case after == 0:
		return chainTail
	}
	return chainMiddle
}

// checkStats summarises one checkOps run: how often entries left the index
// from each chain position, and the largest bucket array it reached.
type checkStats struct {
	unlinked   [4]int
	maxBuckets int
}

func (a *checkStats) add(b checkStats) {
	for p := range a.unlinked {
		a.unlinked[p] += b.unlinked[p]
	}
	a.maxBuckets = max(a.maxBuckets, b.maxBuckets)
}

// checkAgainstRef decodes ops (see decodeOps) and runs them through
// checkOps.
func checkAgainstRef(t *testing.T, ops []byte) checkStats {
	t.Helper()
	capEntries, oneBucket, seq := decodeOps(ops)
	return checkOps(t, capEntries, oneBucket, seq)
}

// checkOps drives the slab cache and the reference LRU with one
// Get/Reserve/Fill/Invalidate sequence and fails on the first divergence in
// outcomes, bytes, Stats, Len or recency (eviction) order, or on a broken
// hash index (indexErr). Reservations are remembered so later fills may go
// through handles that have since gone stale. With oneBucket the index
// never grows past one bucket, so every resident key shares one chain.
func checkOps(t *testing.T, capEntries int, oneBucket bool, seq []refOp) checkStats {
	t.Helper()
	const evSize = 8
	slab := New(int64(capEntries*evSize), evSize)
	if oneBucket {
		slab.lru.maxBuckets = 1
	}
	ref := newRef(capEntries)
	type reservation struct {
		h Handle
		e *refEntry
	}
	var held []reservation
	var st checkStats
	for step, o := range seq {
		k := o.key
		where := fmt.Sprintf("step %d (op %d, key %v, cap %d, one bucket %v)", step, o.op, k, capEntries, oneBucket)
		switch o.op {
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
			}
		case 1:
			if slab.lru.n == slab.lru.capEntries && slab.lru.capEntries > 0 && slab.lru.find(k) == noSlot {
				st.unlinked[slab.lru.chainPos(slab.lru.tail)]++
			}
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
			r := held[o.arg%len(held)]
			slab.Fill(r.h)
			r.e.filled = true
		case 3:
			if i := slab.lru.find(k); i != noSlot {
				st.unlinked[slab.lru.chainPos(i)]++
			}
			if got, want := slab.Invalidate(k.Table, k.Row), ref.invalidate(k); got != want {
				t.Fatalf("%s: invalidate %v, reference %v", where, got, want)
			}
		}
		if slab.Stats() != ref.stats || slab.Len() != ref.lru.Len() {
			t.Fatalf("%s: stats %+v len %d, reference %+v len %d", where, slab.Stats(), slab.Len(), ref.stats, ref.lru.Len())
		}
		if got, want := slab.lru.order(), ref.order(); !slices.Equal(got, want) {
			t.Fatalf("%s: recency order %v, reference %v", where, got, want)
		}
		if err := slab.lru.indexErr(); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		st.maxBuckets = max(st.maxBuckets, len(slab.lru.buckets))
	}
	return st
}

// wideOps builds a seeded wide-form stream (see decodeOps) of n operations
// at capacity capSel*5: Gets and Reserves mostly, some Fills and
// Invalidates, with keys drawn half from 64 hot ones and half from 4096,
// one in eight of them mirrored to the packing boundary.
func wideOps(rng *rand.Rand, capSel int, oneBucket bool, n int) []byte {
	ops := []byte{wideMode | byte(capSel)}
	if oneBucket {
		ops[0] |= oneBucketBit
	}
	for range n {
		op := [...]byte{0, 0, 0, 1, 1, 1, 2, 2, 3}[rng.Intn(9)]
		key := rng.Intn(4096)
		if rng.Intn(2) == 0 {
			key = rng.Intn(64)
		}
		table, row := key&1, key>>1
		b := byte((row>>8)<<3|table<<2) | op
		if rng.Intn(8) == 0 {
			b |= 0x80
		}
		ops = append(ops, b, byte(row))
	}
	return ops
}

// TestSlabMatchesReference runs seeded random operation sequences against
// the slab cache and the list+map reference. The narrow sequences cover
// every capacity the narrow decoder produces (0, 1 and 2 entries
// included). The wide sequences run capacities up to 315 over more than a thousand
// distinct keys, so the bucket array doubles from 8 to 512 and entries
// leave from the head, middle and tail of their chains.
func TestSlabMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 400; seq++ {
		ops := make([]byte, 1+2*(50+rng.Intn(150)))
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		ops[0] = byte(seq) % wideMode
		checkAgainstRef(t, ops)
	}
	var all checkStats
	for seq := 0; seq < 12; seq++ {
		capSel := 63 - 4*seq // 315 entries down to 95
		all.add(checkAgainstRef(t, wideOps(rng, capSel, false, 3000)))
	}
	if all.maxBuckets != 512 {
		t.Fatalf("wide sequences grew the bucket array to %d, want 512", all.maxBuckets)
	}
	for p, n := range all.unlinked {
		if n == 0 {
			t.Fatalf("no entry left its chain from position %d (lone, head, middle, tail): %v", p, all.unlinked)
		}
	}
}

// TestOneBucketMatchesReference forces every key into one chain, hundreds
// of slots long, and checks the slab against the reference all the same:
// a lookup walks the whole chain and every removal unlinks from an
// arbitrary position of it.
func TestOneBucketMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var all checkStats
	for seq := 0; seq < 6; seq++ {
		all.add(checkAgainstRef(t, wideOps(rng, 60-7*seq, true, 2000)))
	}
	if all.maxBuckets != 1 {
		t.Fatalf("one-bucket index grew to %d buckets", all.maxBuckets)
	}
	for _, p := range []int{chainHead, chainMiddle, chainTail} {
		if all.unlinked[p] == 0 {
			t.Fatalf("no entry left the shared chain from position %d: %v", p, all.unlinked)
		}
	}
}

// TestChainUnlinkPositions removes the head, a middle slot and the tail of
// one known chain and checks every other key still finds its entry.
func TestChainUnlinkPositions(t *testing.T) {
	c := New(16*128, 128)
	c.lru.maxBuckets = 1
	for r := int64(0); r < 10; r++ {
		c.Reserve(0, r) // pushed onto the chain's front: 9 is its head, 0 its tail
	}
	for _, tc := range []struct {
		row int64
		pos int
	}{{9, chainHead}, {4, chainMiddle}, {0, chainTail}} {
		i := c.lru.find(Key{0, tc.row})
		if i == noSlot || c.lru.chainPos(i) != tc.pos {
			t.Fatalf("row %d: slot %d at chain position %d, want %d", tc.row, i, c.lru.chainPos(i), tc.pos)
		}
		if !c.Invalidate(0, tc.row) {
			t.Fatalf("row %d: invalidate missed", tc.row)
		}
		if err := c.lru.indexErr(); err != nil {
			t.Fatalf("after unlinking row %d: %v", tc.row, err)
		}
	}
	for r := int64(0); r < 10; r++ {
		_, ok := c.Get(0, r)
		if gone := r == 9 || r == 4 || r == 0; ok == gone {
			t.Fatalf("row %d: resident %v after the unlinks", r, ok)
		}
	}
}

// TestIndexErrCatchesCorruption: each invariant indexErr states trips on a
// cache corrupted to break it, so the simdebug check cannot rot into a
// no-op.
func TestIndexErrCatchesCorruption(t *testing.T) {
	build := func() *Cache {
		c := New(64*128, 128)
		for r := int64(0); r < 40; r++ {
			c.Reserve(0, r)
		}
		c.Invalidate(0, 7)
		if err := c.lru.indexErr(); err != nil {
			t.Fatalf("healthy cache: %v", err)
		}
		return c
	}
	for _, tc := range []struct {
		name    string
		corrupt func(c *Cache)
	}{
		{"free slot on a chain", func(c *Cache) {
			b := c.lru.bucket(c.lru.slots[c.lru.free].key)
			c.lru.slots[c.lru.free].hnext = c.lru.buckets[b]
			c.lru.buckets[b] = c.lru.free
		}},
		{"resident slot unreachable", func(c *Cache) { c.lru.unhash(c.lru.head); c.lru.slots[c.lru.head].hnext = noSlot }},
		{"slot under the wrong bucket", func(c *Cache) {
			i := c.lru.head
			c.lru.unhash(i)
			b := (c.lru.bucket(c.lru.slots[i].key) + 1) % len(c.lru.buckets)
			c.lru.slots[i].hnext, c.lru.buckets[b] = c.lru.buckets[b], i
		}},
		{"key shadowed on its chain", func(c *Cache) {
			c.lru.unhash(c.lru.tail)
			c.lru.slots[c.lru.tail].key = c.lru.slots[c.lru.head].key
			c.lru.link(c.lru.tail)
		}},
		{"resident count off", func(c *Cache) { c.lru.n++ }},
	} {
		c := build()
		tc.corrupt(c)
		if c.lru.indexErr() == nil {
			t.Errorf("%s: not caught", tc.name)
		}
	}
}

// TestChainsStayShort fills a 4096-entry cache with regular key patterns
// (consecutive rows, rows strided by the bucket count, one row across
// many tables) and checks the hash spreads each over the buckets: with one
// entry per bucket on average, no chain may reach 16.
func TestChainsStayShort(t *testing.T) {
	const entries = 4096
	for _, tc := range []struct {
		name string
		key  func(i int) Key
	}{
		{"consecutive rows", func(i int) Key { return Key{0, int64(i)} }},
		{"strided rows", func(i int) Key { return Key{1, int64(i) * entries} }},
		{"one row per table", func(i int) Key { return Key{i, 42} }},
	} {
		c := New(entries*8, 8)
		for i := range entries {
			k := tc.key(i)
			c.Reserve(k.Table, k.Row)
		}
		longest := 0
		for _, i := range c.lru.buckets {
			n := 0
			for ; i != noSlot; i = c.lru.slots[i].hnext {
				n++
			}
			longest = max(longest, n)
		}
		if len(c.lru.buckets) != entries || longest >= 16 {
			t.Errorf("%s: longest of %d chains holds %d slots", tc.name, len(c.lru.buckets), longest)
		}
	}
}

// residentBytesPerEntry fills a New(budget, evSize) cache, churns three
// times its capacity of distinct keys through it, and returns the heap it
// retains per resident entry after a GC: slot and index together.
// cmd/rmperf reports the same measurement as
// micro.evcache_resident_bytes_per_entry.
func residentBytesPerEntry(budget int64, evSize int) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New(budget, evSize)
	for r := range 3 * c.CapEntries() {
		c.Fill(c.Reserve(0, int64(r)))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(c.Len())
}

// TestResidentFootprint pins what a full cache costs: at most 30 bytes per
// resident entry, the 24-byte slot plus about 4 bytes of bucket array and
// no vector bytes (a 32-byte slot with the Key unpacked cost about 36, a Go
// map index alone about 49, and a cache that kept each 128-byte vector
// about 163.5).
func TestResidentFootprint(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 24 {
		t.Fatalf("slot is %d bytes, want 24", got)
	}
	const evSize = 128
	budget := int64(8 << 20)
	if Debug {
		// The simdebug layer walks the whole index after every Reserve,
		// which makes churning 65536 entries quadratic: measure 2048.
		budget = 256 << 10
	}
	got := residentBytesPerEntry(budget, evSize)
	t.Logf("full churned %d KiB cache: %.1f B per %d-byte entry", budget>>10, got, evSize)
	if got > 30 {
		t.Fatalf("full churned %d KiB cache retains %.1f B per %d-byte entry, want at most 30", budget>>10, got, evSize)
	}
}

// FuzzEVCacheOps drives checkAgainstRef with arbitrary operation streams.
func FuzzEVCacheOps(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1, 2, 2, 0, 0, 1})             // one entry: evict before fill
	f.Add([]byte{2, 1, 0, 1, 1, 1, 2, 0, 0, 2, 1, 0, 1}) // two entries, refill
	f.Add([]byte{0, 1, 3, 0, 3, 2, 0, 3, 3})             // zero capacity
	// Wide form, 20 entries: reservation r is key (r%2, r*37 mod 256).
	// 17 of them grow the bucket array from 8 to 16 and then to 32;
	// invalidations and lookups follow.
	wide := func(first byte, ops ...int) []byte {
		b := []byte{first}
		for i := 0; i+1 < len(ops); i += 2 {
			op, r := ops[i], ops[i+1]
			b = append(b, byte(op)|byte(r%2)<<2, byte(r*37))
		}
		return b
	}
	var grow []int
	for r := range 17 {
		grow = append(grow, 1, r)
	}
	f.Add(wide(wideMode|4, append(grow, 3, 0, 3, 1, 0, 2, 0, 1)...))
	// The same reservations in one 17-slot chain, then removals from its
	// middle, head and tail.
	f.Add(wide(wideMode|oneBucketBit|4, append(grow, 3, 4, 3, 16, 3, 0, 0, 2)...))
	// Keys at the packing boundary beside small ones, 10 entries: reserve
	// (maxTable, maxRow), (0, 0), (maxTable-1, maxRow) and (1, 0), fill
	// the first, look three up, invalidate the two boundary keys, and look
	// up (maxTable, maxRow) and (0, 0) again. Then the same in one chain.
	edge := []byte{
		0x81, 0, 0x01, 0, 0x85, 0, 0x05, 0, 0x02, 0,
		0x80, 0, 0x00, 0, 0x84, 0,
		0x83, 0, 0x87, 0,
		0x80, 0, 0x00, 0,
	}
	f.Add(append([]byte{wideMode | 2}, edge...))
	f.Add(append([]byte{wideMode | oneBucketBit | 2}, edge...))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 513 { // 256 operations
			ops = ops[:513]
		}
		checkAgainstRef(t, ops)
	})
}
