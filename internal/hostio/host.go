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
// vector with lseek+read before summing).
type Host struct {
	fs    *FS
	cache *PageCache
	stats IOStats
	// readahead is the number of extra sequential pages the kernel pulls
	// in on a miss. Linux applies readahead even to fairly random read()
	// patterns unless the file is opened O_DIRECT or advised RANDOM; the
	// paper's measured amplification (17.9x for 256-byte vectors, above
	// the 16x page/vector ceiling) is only explicable with readahead
	// enabled. Default 0 (posix_fadvise(RANDOM) behaviour).
	readahead int
}

// NewHost combines a file system and a page cache with dramBytes of budget.
func NewHost(fs *FS, dramBytes int64) *Host {
	return &Host{fs: fs, cache: NewPageCache(dramBytes, fs.PageSize())}
}

// FS returns the file system.
func (h *Host) FS() *FS { return h.fs }

// Cache returns the page cache.
func (h *Host) Cache() *PageCache { return h.cache }

// SetReadahead makes every miss additionally fault in n following pages
// (device time charged asynchronously, traffic counted, pages cached).
func (h *Host) SetReadahead(n int) {
	if n < 0 {
		n = 0
	}
	h.readahead = n
}

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
	ps := int64(h.fs.PageSize())
	h.stats.BytesRequested += int64(n)
	now := at
	remaining := int64(n)
	pos := off
	for remaining > 0 {
		addr := f.AddrOf(pos)
		lpn := addr / ps
		col := addr % ps
		chunk := ps - col
		if chunk > remaining {
			chunk = remaining
		}
		if h.cache.Touch(f.ID(), lpn) {
			now += params.PageCacheHitCost
		} else {
			done := h.fs.dev.ReadPage(now, lpn)
			now = done + params.PageCacheMissOverhead
			h.stats.BytesFromDevice += ps
			h.stats.DeviceReads++
			h.faultReadahead(now, f, lpn)
		}
		pos += chunk
		remaining -= chunk
	}
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
	ps := int64(h.fs.PageSize())
	h.stats.BytesRequested += int64(n)
	now := at
	remaining := int64(n)
	pos := off
	for remaining > 0 {
		addr := f.AddrOf(pos)
		lpn := addr / ps
		col := addr % ps
		chunk := ps - col
		if chunk > remaining {
			chunk = remaining
		}
		done := h.fs.dev.ReadPageInternal(now, lpn)
		now = done + params.MMIOPageFetchCost
		h.stats.BytesFromDevice += ps
		h.stats.DeviceReads++
		pos += chunk
		remaining -= chunk
	}
	return now
}

// Warm faults the pages covering [off, off+n) into the cache without
// counting hits, misses or traffic: the paper's warm-up phase.
func (h *Host) Warm(f *File, off int64, n int) {
	if n <= 0 {
		return
	}
	ps := int64(h.fs.PageSize())
	pos := off
	remaining := int64(n)
	for remaining > 0 {
		addr := f.AddrOf(pos)
		lpn := addr / ps
		col := addr % ps
		chunk := ps - col
		if chunk > remaining {
			chunk = remaining
		}
		h.cache.Warm(f.ID(), lpn)
		pos += chunk
		remaining -= chunk
	}
}

// faultReadahead pulls the next pages of the file into the cache after a
// miss. The reads are issued asynchronously (they occupy device resources
// but the caller does not wait), exactly like kernel readahead.
func (h *Host) faultReadahead(at sim.Time, f *File, lpn int64) {
	if h.readahead == 0 {
		return
	}
	ps := int64(h.fs.PageSize())
	maxOff := f.Size()
	// Identify the file offset of the missed page to walk forward in
	// file space (contiguous within an extent).
	for i := 1; i <= h.readahead; i++ {
		next := lpn + int64(i)
		// Stay within the device range backing this file: walk extents.
		addr := next * ps
		if !h.addrInFile(f, addr) || int64(i)*ps >= maxOff {
			return
		}
		if h.cache.Contains(f.ID(), next) {
			continue
		}
		h.fs.dev.ReadPage(at, next)
		h.cache.Warm(f.ID(), next)
		h.stats.BytesFromDevice += ps
		h.stats.DeviceReads++
	}
}

// addrInFile reports whether the device byte address falls inside one of
// the file's extents.
func (h *Host) addrInFile(f *File, addr int64) bool {
	for _, e := range f.Extents() {
		if addr >= e.Addr && addr < e.Addr+e.Len {
			return true
		}
	}
	return false
}
