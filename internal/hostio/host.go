package hostio

import (
	"rmssd/internal/params"
	"rmssd/internal/sim"
)

// IOStats accumulates host I/O traffic for read-amplification reporting
// (Fig. 3, Table IV).
type IOStats struct {
	// BytesRequested is what the application asked for: the ideal
	// traffic of a byte-addressable storage device.
	BytesRequested int64
	// BytesFromDevice is the page-granular traffic actually moved from
	// the SSD on cache misses.
	BytesFromDevice int64
	// DeviceReads counts page reads issued to the SSD.
	DeviceReads int64
}

// Amplification returns the I/O traffic amplification factor relative to a
// byte-addressable ideal device (Fig. 3's metric).
func (s IOStats) Amplification() float64 {
	if s.BytesRequested == 0 {
		return 0
	}
	return float64(s.BytesFromDevice) / float64(s.BytesRequested)
}

// Host is the host-side I/O path of the naive SSD baselines: an application
// issuing pread-style requests through the page cache onto the SSD, one
// request at a time (the paper's customised SLS operator reads each required
// vector with lseek+read before summing). A miss faults in only the page it
// touched: there is no readahead, as under posix_fadvise(RANDOM).
type Host struct {
	fs    *FS
	cache *PageCache
	stats IOStats
}

// NewHost combines a file system and a page cache with dramBytes of budget.
func NewHost(fs *FS, dramBytes int64) *Host {
	return &Host{fs: fs, cache: NewPageCache(dramBytes, fs.PageSize())}
}

// FS returns the file system.
func (h *Host) FS() *FS { return h.fs }

// Cache returns the page cache.
func (h *Host) Cache() *PageCache { return h.cache }

// Stats returns a snapshot of the traffic counters.
func (h *Host) Stats() IOStats { return h.stats }

// ResetStats zeroes traffic and cache counters (cache contents persist).
func (h *Host) ResetStats() {
	h.stats = IOStats{}
	h.cache.ResetStats()
}

// ReadAt reads n bytes at file offset off through the page cache and
// returns the completion time. Pages are faulted in serially, modelling the
// synchronous read(2) path of the baseline SLS operator. The read carries
// no bytes: a caller that needs them copies them from the device with
// ssd.Device.PeekRangeInto at File.AddrOf(off).
func (h *Host) ReadAt(at sim.Time, f *File, off int64, n int) sim.Time {
	if n <= 0 {
		return at
	}
	h.stats.BytesRequested += int64(n)
	now := at
	f.walkPages(off, n, func(lpn int64, _, _ int) {
		if h.cache.Touch(f.ID(), lpn) {
			now += params.PageCacheHitCost
			return
		}
		now = h.fs.dev.ReadPage(now, lpn) + params.PageCacheMissOverhead
		h.countDeviceRead()
	})
	return now
}

// ReadMMIO models the EMB-MMIO baseline's data path: the page holding the
// requested range is fetched to userspace directly through the MMIO window,
// bypassing the file system and page cache but still moving whole pages
// (page-granular device access, no kernel overhead, no caching). Like
// ReadAt it returns only the completion time.
func (h *Host) ReadMMIO(at sim.Time, f *File, off int64, n int) sim.Time {
	if n <= 0 {
		return at
	}
	h.stats.BytesRequested += int64(n)
	now := at
	f.walkPages(off, n, func(lpn int64, _, _ int) {
		now = h.fs.dev.ReadPageInternal(now, lpn) + params.MMIOPageFetchCost
		h.countDeviceRead()
	})
	return now
}

// Warm faults the pages covering [off, off+n) into the cache without
// counting hits, misses or traffic: the paper's warm-up phase.
func (h *Host) Warm(f *File, off int64, n int) {
	f.walkPages(off, n, func(lpn int64, _, _ int) { h.cache.Warm(f.ID(), lpn) })
}

// countDeviceRead records one whole page moved from the device.
func (h *Host) countDeviceRead() {
	h.stats.BytesFromDevice += int64(h.fs.PageSize())
	h.stats.DeviceReads++
}
