package hostio

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"
)

// refPageCache is the container/list + map LRU PageCache was before it sat
// on evcache.LRU, kept as the oracle for its hit/miss, eviction and
// residency behaviour.
type refPageCache struct {
	capacityPages int
	lru           *list.List // front = most recent; values are refPage
	index         map[refPage]*list.Element
	stats         CacheStats
}

type refPage struct {
	file int
	lpn  int64
}

func newRefPageCache(capacityBytes int64, pageSize int) *refPageCache {
	return &refPageCache{
		capacityPages: int(capacityBytes / int64(pageSize)),
		lru:           list.New(),
		index:         make(map[refPage]*list.Element),
	}
}

// insert faults key in, evicting from the back, and returns the evictions.
func (c *refPageCache) insert(key refPage) int64 {
	if c.capacityPages <= 0 {
		return 0
	}
	var evicted int64
	for c.lru.Len() >= c.capacityPages {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.index, oldest.Value.(refPage))
		evicted++
	}
	c.index[key] = c.lru.PushFront(key)
	return evicted
}

func (c *refPageCache) touch(file int, lpn int64) bool {
	key := refPage{file, lpn}
	if el, ok := c.index[key]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	c.stats.Evictions += c.insert(key)
	return false
}

func (c *refPageCache) warm(file int, lpn int64) {
	key := refPage{file, lpn}
	if el, ok := c.index[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.insert(key)
}

func (c *refPageCache) contains(file int, lpn int64) bool {
	_, ok := c.index[refPage{file, lpn}]
	return ok
}

// TestPageCacheMatchesListReference drives PageCache and the list+map
// reference through one seeded page trace of interleaved Touch, Warm,
// presence probes, a Touch whose miss warms the following absent pages, and
// ResetStats, and compares after every step: the hit or miss, Stats, Len and
// the resident set. Capacity 1037
// holds more pages than 1024 buckets, so the index doubles up to its
// 2048-bucket ceiling under the trace.
func TestPageCacheMatchesListReference(t *testing.T) {
	const pageSize = 4096
	for _, capPages := range []int{0, 1, 3, 1037} {
		t.Run(fmt.Sprintf("cap%d", capPages), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capPages) + 1))
			c := NewPageCache(int64(capPages)*pageSize, pageSize)
			ref := newRefPageCache(int64(capPages)*pageSize, pageSize)
			// Half the accesses go to a hot eighth of the pages, so both
			// hits and evictions stay frequent at every capacity.
			universe := int64(4 * max(capPages, 8))
			page := func() (int, int64) {
				lpn := rng.Int63n(universe)
				if rng.Intn(2) == 0 {
					lpn /= 8
				}
				return rng.Intn(3), lpn
			}
			var total CacheStats // across ResetStats
			for step := range 8000 {
				file, lpn := page()
				where := fmt.Sprintf("step %d, page (%d, %d)", step, file, lpn)
				switch op := rng.Intn(10); {
				case op < 5:
					if got, want := c.Touch(file, lpn), ref.touch(file, lpn); got != want {
						t.Fatalf("%s: touch hit %v, reference %v", where, got, want)
					}
				case op < 7:
					c.Warm(file, lpn)
					ref.warm(file, lpn)
				case op < 8:
					if got, want := c.lru.Contains(pageKey(file, lpn)), ref.contains(file, lpn); got != want {
						t.Fatalf("%s: contains %v, reference %v", where, got, want)
					}
				case op < 9:
					hit := c.Touch(file, lpn)
					if want := ref.touch(file, lpn); hit != want {
						t.Fatalf("%s: sequential touch hit %v, reference %v", where, hit, want)
					}
					for next := lpn + 1; !hit && next <= lpn+4; next++ {
						in, want := c.lru.Contains(pageKey(file, next)), ref.contains(file, next)
						if in != want {
							t.Fatalf("%s: following page %d present %v, reference %v", where, next, in, want)
						}
						if !in {
							c.Warm(file, next)
							ref.warm(file, next)
						}
					}
				default:
					total.Hits += ref.stats.Hits
					total.Evictions += ref.stats.Evictions
					c.ResetStats()
					ref.stats = CacheStats{}
				}
				if c.Stats() != ref.stats || c.Len() != ref.lru.Len() {
					t.Fatalf("%s: stats %+v len %d, reference %+v len %d", where, c.Stats(), c.Len(), ref.stats, ref.lru.Len())
				}
				// Equal sizes and every reference page resident: equal sets.
				for el := ref.lru.Front(); el != nil; el = el.Next() {
					if p := el.Value.(refPage); !c.lru.Contains(pageKey(p.file, p.lpn)) {
						t.Fatalf("%s: page %v resident in the reference only", where, p)
					}
				}
			}
			total.Hits += ref.stats.Hits
			total.Evictions += ref.stats.Evictions
			if capPages > 0 && (total.Hits < 100 || total.Evictions < 100 || c.Len() != capPages) {
				t.Fatalf("trace too weak: %d hits, %d evictions, %d of %d pages resident", total.Hits, total.Evictions, c.Len(), capPages)
			}
		})
	}
}

// BenchmarkPageCacheTouch measures the SSD-S/SSD-M page cache's steady
// state on a full cache: per iteration one miss that faults a new page in
// and evicts the least recently used one, and one hit on a resident page.
func BenchmarkPageCacheTouch(b *testing.B) {
	const capPages = 1 << 12
	c := NewPageCache(capPages*4096, 4096)
	for p := int64(0); p < capPages; p++ {
		c.Touch(0, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miss := int64(capPages + i)
		if c.Touch(0, miss) {
			b.Fatal("unexpected hit")
		}
		if !c.Touch(0, miss-capPages/4) {
			b.Fatal("unexpected miss")
		}
	}
}
