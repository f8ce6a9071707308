package evcache

import (
	"fmt"
	"math"
	"math/bits"
)

// LRU is the keyed least-recently-used index every cache in the simulator
// sits on: the device EV cache (Cache, which RecSSD's host vector cache
// reuses) and the naive SSD baselines' host page cache (hostio.PageCache).
// It tracks presence only, and so do its owners: neither keeps data per
// entry.
//
// Storage is one pointer-free slab. Each resident key occupies a slot: a
// 24-byte record holding the Key packed into one word, its recency links
// and its hash-chain link (slot indices, not pointers). The slot array
// grows as slots are first used, so an LRU costs only what is resident
// however large its capacity. The index is part of the slab too: a
// power-of-two array of bucket heads, each the first slot of a chain linked
// through the slots, keyed by a fixed 64-bit mix of the packed Key. The
// bucket array doubles (rehashing every chain) whenever the resident count
// reaches its length, up to the capacity rounded up to a power of two, so
// chains average at most one slot and the index costs about 4 bytes per
// resident entry.
//
// A Key packs as Table<<48 | Row, so the LRU holds only keys with
// 0 <= Table < 1<<16 (model.MaxTables; hostio numbers files from 0) and
// 0 <= Row < 1<<48. Any other key is unrepresentable: looking it up
// misses, and inserting it panics, so it can never alias a resident key.
//
// The hash is seed-free and the index is plain arrays, never a Go map:
// identical call sequences produce identical hits, evictions and chains.
// An LRU is not safe for concurrent use, and it is used in place: keep it
// in a variable or field and call its methods through that.
type LRU struct {
	capEntries int
	slots      []slot
	buckets    []int32 // hash-chain heads, power-of-two length
	maxBuckets int     // bucket array growth ceiling
	head, tail int32   // most / least recently used; noSlot when empty
	free       int32   // released slots, linked through next
	n          int     // resident entries
}

// noSlot terminates the recency list, the free list and the hash chains, and
// marks an empty bucket. offChain is a free slot's chain link: it is on no
// chain.
const (
	noSlot   = -1
	offChain = -2
)

// minBuckets is the bucket array's length once the first entry arrives.
const minBuckets = 8

// slot is one entry's bookkeeping: 24 bytes (20 and alignment padding)
// holding no pointers, so the slot array is invisible to the garbage
// collector's scan.
type slot struct {
	key        uint64 // packKey of the entry's Key
	prev, next int32  // recency neighbours (free list: next only)
	hnext      int32  // next slot in the key's bucket chain
}

// rowBits is the width of a packed key's row field; the table takes the
// 64-rowBits bits above it.
const rowBits = 48

// packKey returns k as one word, Table<<rowBits | Row, and whether k is
// representable: ok is false, and the word meaningless, unless
// 0 <= Table < 1<<(64-rowBits) and 0 <= Row < 1<<rowBits.
func packKey(k Key) (p uint64, ok bool) {
	if uint64(k.Table) >= 1<<(64-rowBits) || uint64(k.Row) >= 1<<rowBits {
		return 0, false
	}
	return uint64(k.Table)<<rowBits | uint64(k.Row), true
}

// unpackKey inverts packKey.
func unpackKey(p uint64) Key {
	return Key{Table: int(p >> rowBits), Row: int64(p & (1<<rowBits - 1))}
}

// NewLRU returns an empty LRU holding at most capEntries keys: none when
// capEntries is not positive, and at most math.MaxInt32 since slot numbers
// are int32. It allocates nothing until the first insertion.
func NewLRU(capEntries int) LRU {
	capEntries = min(max(capEntries, 0), math.MaxInt32)
	return LRU{
		capEntries: capEntries,
		maxBuckets: 1 << bits.Len(uint(max(capEntries-1, 0))),
		head:       noSlot,
		tail:       noSlot,
		free:       noSlot,
	}
}

// Cap returns the entry capacity.
func (l *LRU) Cap() int { return l.capEntries }

// Len returns the number of resident keys.
func (l *LRU) Len() int { return l.n }

// Contains reports whether k is resident, without touching recency. An
// unrepresentable key is never resident.
func (l *LRU) Contains(k Key) bool { return l.find(k) != noSlot }

// Access makes k resident and most recently used. hit reports whether it
// already was; evicted reports whether inserting it evicted the least
// recently used key. With zero capacity nothing is ever resident. It panics
// on an unrepresentable key (see LRU).
func (l *LRU) Access(k Key) (hit, evicted bool) {
	_, hit, evicted = l.access(k)
	return hit, evicted
}

// access is Access, also returning k's slot (noSlot with zero capacity).
func (l *LRU) access(k Key) (i int32, hit, evicted bool) {
	p, ok := packKey(k)
	if !ok {
		panic(fmt.Sprintf("evcache: key %v outside tables [0,%d) and rows [0,%d)", k, 1<<(64-rowBits), int64(1)<<rowBits))
	}
	if i = l.findPacked(p); i != noSlot {
		l.touch(i)
		return i, true, false
	}
	if l.capEntries == 0 {
		return noSlot, false, false
	}
	if evicted = l.n == l.capEntries; evicted {
		l.remove(l.tail)
	}
	if l.n == len(l.buckets) && l.n < l.maxBuckets {
		l.growIndex()
	}
	i = l.alloc()
	l.slots[i].key = p
	l.pushFront(i)
	l.link(i)
	l.n++
	debugIndex(l)
	return i, false, evicted
}

// alloc returns a free slot, taking a released one first and otherwise
// appending a new one, growing the slot array only as far as the capacity
// needs. New slots are numbered consecutively from 0.
func (l *LRU) alloc() int32 {
	if i := l.free; i != noSlot {
		l.free = l.slots[i].next
		return i
	}
	i := len(l.slots)
	if i == cap(l.slots) {
		grown := make([]slot, i, min(max(2*i, 64), l.capEntries))
		copy(grown, l.slots)
		l.slots = grown
	}
	l.slots = append(l.slots, slot{})
	return int32(i)
}

// remove drops slot i's entry: it leaves the recency list and its hash
// chain, and the slot joins the free list.
func (l *LRU) remove(i int32) {
	l.unlink(i)
	l.unhash(i)
	s := &l.slots[i]
	s.hnext = offChain
	s.next = l.free
	l.free = i
	l.n--
	debugIndex(l)
}

// hashKey mixes a packed key into 64 well-spread bits (the MurmurHash3
// finalizer). It is fixed and seed-free, so chain order, like everything
// else, is reproducible.
func hashKey(p uint64) uint64 {
	h := p
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// bucket returns the bucket array position of a packed key's chain.
func (l *LRU) bucket(p uint64) int {
	return int(hashKey(p) & uint64(len(l.buckets)-1))
}

// find returns the slot holding key, or noSlot (always for an
// unrepresentable key).
func (l *LRU) find(k Key) int32 {
	p, ok := packKey(k)
	if !ok {
		return noSlot
	}
	return l.findPacked(p)
}

// findPacked returns the slot holding the packed key p, or noSlot.
func (l *LRU) findPacked(p uint64) int32 {
	if len(l.buckets) == 0 {
		return noSlot
	}
	i := l.buckets[l.bucket(p)]
	for i != noSlot && l.slots[i].key != p {
		i = l.slots[i].hnext
	}
	return i
}

// link pushes slot i onto the front of its key's chain.
func (l *LRU) link(i int32) {
	b := l.bucket(l.slots[i].key)
	l.slots[i].hnext = l.buckets[b]
	l.buckets[b] = i
}

// unhash removes slot i from its key's chain.
func (l *LRU) unhash(i int32) {
	p := &l.buckets[l.bucket(l.slots[i].key)]
	for *p != i {
		p = &l.slots[*p].hnext
	}
	*p = l.slots[i].hnext
}

// growIndex doubles the bucket array (to minBuckets from empty, never past
// maxBuckets) and relinks every chain into it.
func (l *LRU) growIndex() {
	old := l.buckets
	l.buckets = make([]int32, min(max(2*len(old), minBuckets), l.maxBuckets))
	for b := range l.buckets {
		l.buckets[b] = noSlot
	}
	for _, i := range old {
		for i != noSlot {
			next := l.slots[i].hnext
			l.link(i)
			i = next
		}
	}
}

// touch makes slot i the most recently used.
func (l *LRU) touch(i int32) {
	if l.head == i {
		return
	}
	l.unlink(i)
	l.pushFront(i)
}

func (l *LRU) pushFront(i int32) {
	s := &l.slots[i]
	s.prev, s.next = noSlot, l.head
	if l.head != noSlot {
		l.slots[l.head].prev = i
	} else {
		l.tail = i
	}
	l.head = i
}

func (l *LRU) unlink(i int32) {
	s := &l.slots[i]
	if s.prev != noSlot {
		l.slots[s.prev].next = s.next
	} else {
		l.head = s.next
	}
	if s.next != noSlot {
		l.slots[s.next].prev = s.prev
	} else {
		l.tail = s.prev
	}
}

// indexErr checks the hash index against the slab: every resident slot's
// key finds that slot, the chains hold exactly the n resident slots, and no
// free slot is reachable from a bucket. It walks the whole LRU without
// allocating, so the simdebug layer can run it after every insertion and
// removal.
func (l *LRU) indexErr() error {
	free := 0
	for i := l.free; i != noSlot; i = l.slots[i].next {
		if l.slots[i].hnext != offChain {
			return fmt.Errorf("free slot %d still carries a chain link", i)
		}
		if free++; free > len(l.slots) {
			return fmt.Errorf("free list cycles")
		}
	}
	if l.n+free != len(l.slots) {
		return fmt.Errorf("%d resident + %d free slots, %d allocated", l.n, free, len(l.slots))
	}
	chained := 0
	for b, head := range l.buckets {
		for i := head; i != noSlot; i = l.slots[i].hnext {
			k := l.slots[i].key
			if l.slots[i].hnext == offChain {
				return fmt.Errorf("free slot %d reachable from bucket %d", i, b)
			}
			if l.bucket(k) != b {
				return fmt.Errorf("slot %d (key %v) chained from bucket %d, hashes to %d", i, unpackKey(k), b, l.bucket(k))
			}
			// find walks this chain from its head: nothing before i may
			// hold i's key.
			for j := head; j != i; j = l.slots[j].hnext {
				if l.slots[j].key == k {
					return fmt.Errorf("slot %d (key %v) shadowed by slot %d", i, unpackKey(k), j)
				}
			}
			if chained++; chained > l.n {
				return fmt.Errorf("chains hold more than the %d resident slots", l.n)
			}
		}
	}
	// Chained slots are distinct, non-free and n in number, so they are
	// exactly the resident ones, and each finds itself.
	if chained != l.n {
		return fmt.Errorf("chains hold %d slots, %d resident", chained, l.n)
	}
	return nil
}
