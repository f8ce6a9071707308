package hostio

import "rmssd/internal/evcache"

// CacheStats counts page-cache behaviour.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// HitRatio returns hits / (hits + misses), or 0 before any access.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// PageCache is an LRU page cache with a byte budget, standing in for the
// kernel page cache of the SSD-S/SSD-M baselines. It tracks presence only;
// data always comes from the device's backing store, which keeps the cache
// cheap while preserving exact hit/miss behaviour. Its index is the
// simulator's one LRU (evcache.LRU), keyed by file identity and page index
// within the file's device address space (so file IDs, numbered from 0 in
// creation order, must stay below the LRU's 1<<16 tables); PageCache adds
// only the counters.
type PageCache struct {
	lru   evcache.LRU
	stats CacheStats
}

// NewPageCache creates a cache holding at most capacityBytes of pages.
// A zero or negative capacity yields a cache that misses everything,
// modelling a fully memory-starved host.
func NewPageCache(capacityBytes int64, pageSize int) *PageCache {
	return &PageCache{lru: evcache.NewLRU(int(capacityBytes / int64(pageSize)))}
}

func pageKey(fileID int, lpn int64) evcache.Key { return evcache.Key{Table: fileID, Row: lpn} }

// Touch records an access to the page and reports whether it hit. On a
// miss the page is inserted (faulted in), evicting the least recently used
// page if the cache is full.
func (c *PageCache) Touch(fileID int, lpn int64) bool {
	hit, evicted := c.lru.Access(pageKey(fileID, lpn))
	if hit {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	if evicted {
		c.stats.Evictions++
	}
	return hit
}

// Warm inserts the page without counting a hit, a miss or an eviction;
// used to model the paper's warm-up period before steady-state measurement.
func (c *PageCache) Warm(fileID int, lpn int64) { c.lru.Access(pageKey(fileID, lpn)) }

// Len returns the number of resident pages.
func (c *PageCache) Len() int { return c.lru.Len() }

// Stats returns a snapshot of the counters.
func (c *PageCache) Stats() CacheStats { return c.stats }

// ResetStats zeroes the counters, keeping contents (steady-state
// measurement after warm-up).
func (c *PageCache) ResetStats() { c.stats = CacheStats{} }
