package hostio

import (
	"bytes"
	"testing"
	"testing/quick"

	"rmssd/internal/flash"
	"rmssd/internal/params"
	"rmssd/internal/ssd"
)

func testFS(t *testing.T) *FS {
	t.Helper()
	geo := flash.Geometry{
		Channels:       4,
		DiesPerChannel: 4,
		PlanesPerDie:   2,
		BlocksPerPlane: 32,
		PagesPerBlock:  16,
		PageSize:       4096,
	}
	return NewFS(ssd.MustNew(geo), 64<<10) // 64 KiB extents
}

// mustCreate creates a file on fs, failing the test on error.
func mustCreate(t *testing.T, fs *FS, name string, size int64) *File {
	t.Helper()
	f, err := fs.Create(name, size)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCreateAndExtents(t *testing.T) {
	fs := testFS(t)
	f, err := fs.Create("table0", 200<<10) // 200 KiB -> 4 extents of 64K (last partial)
	if err != nil {
		t.Fatal(err)
	}
	exts := f.Extents()
	if len(exts) != 4 {
		t.Fatalf("extent count = %d, want 4", len(exts))
	}
	var total int64
	var off int64
	for _, e := range exts {
		if e.FileOff != off {
			t.Fatalf("extent FileOff = %d, want %d", e.FileOff, off)
		}
		if e.Len%4096 != 0 || e.Addr%4096 != 0 {
			t.Fatalf("extent not page aligned: %+v", e)
		}
		total += e.Len
		off += e.Len
	}
	if total < f.Size() {
		t.Fatalf("extents cover %d < size %d", total, f.Size())
	}
}

func TestCreateErrors(t *testing.T) {
	fs := testFS(t)
	if _, err := fs.Create("x", 0); err == nil {
		t.Fatal("size 0 should fail")
	}
	if _, err := fs.Create("x", 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("x", 4096); err == nil {
		t.Fatal("duplicate create should fail")
	}
	if _, err := fs.Create("huge", 1<<40); err == nil {
		t.Fatal("oversize create should fail")
	}
	if _, err := fs.Open("missing"); err == nil {
		t.Fatal("open of missing file should fail")
	}
	if f, err := fs.Open("x"); err != nil || f.Name() != "x" {
		t.Fatal("open of existing file failed")
	}
}

func TestFilesDoNotOverlap(t *testing.T) {
	fs := testFS(t)
	a := mustCreate(t, fs, "a", 100<<10)
	b := mustCreate(t, fs, "b", 100<<10)
	used := map[int64]string{}
	for _, f := range []*File{a, b} {
		for _, e := range f.Extents() {
			for p := e.Addr; p < e.Addr+e.Len; p += 4096 {
				if owner, ok := used[p]; ok {
					t.Fatalf("page %d used by %s and %s", p, owner, f.Name())
				}
				used[p] = f.Name()
			}
		}
	}
}

func TestAddrOfMonotoneWithinExtent(t *testing.T) {
	fs := testFS(t)
	f := mustCreate(t, fs, "t", 300<<10)
	prop := func(raw uint32) bool {
		off := int64(raw) % f.Size()
		addr := f.AddrOf(off)
		// Address must be inside some extent at matching relative offset.
		for _, e := range f.Extents() {
			if off >= e.FileOff && off < e.FileOff+e.Len {
				return addr == e.Addr+(off-e.FileOff)
			}
		}
		return false
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddrOfOutOfRangePanics(t *testing.T) {
	fs := testFS(t)
	f := mustCreate(t, fs, "t", 4096)
	for _, off := range []int64{-1, 4096} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddrOf(%d) did not panic", off)
				}
			}()
			f.AddrOf(off)
		}()
	}
}

func TestWriteAtReadBack(t *testing.T) {
	fs := testFS(t)
	f := mustCreate(t, fs, "t", 64<<10)
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i)
	}
	f.WriteAt(data, 1000) // unaligned, crosses pages
	// Read back page by page through the device peek.
	var got []byte
	ps := int64(fs.PageSize())
	end := 1000 + int64(len(data))
	for pos := int64(1000); pos < end; {
		addr := f.AddrOf(pos)
		col := addr % ps
		n := min(ps-col, end-pos)
		got = append(got, fs.Device().PeekPage(addr / ps)[col:col+n]...)
		pos += n
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewPageCache(3*4096, 4096)
	c.Touch(0, 1) // miss
	c.Touch(0, 2) // miss
	c.Touch(0, 3) // miss -> cache {3,2,1}
	if !c.Touch(0, 1) {
		t.Fatal("page 1 should hit")
	}
	c.Touch(0, 4) // evicts LRU = 2
	if c.Contains(0, 2) {
		t.Fatal("page 2 should have been evicted")
	}
	if !c.Contains(0, 1) || !c.Contains(0, 3) || !c.Contains(0, 4) {
		t.Fatal("wrong residents after eviction")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 4 || s.Evictions != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCacheDistinguishesFiles(t *testing.T) {
	c := NewPageCache(10*4096, 4096)
	c.Touch(0, 5)
	if c.Touch(1, 5) {
		t.Fatal("same LPN under different file must not hit")
	}
}

func TestCacheZeroCapacity(t *testing.T) {
	c := NewPageCache(0, 4096)
	c.Touch(0, 1)
	if c.Touch(0, 1) {
		t.Fatal("zero-capacity cache must always miss")
	}
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache must stay empty")
	}
}

func TestCacheNeverExceedsBudgetProperty(t *testing.T) {
	prop := func(accesses []uint16, cap8 uint8) bool {
		capPages := int(cap8%16) + 1
		c := NewPageCache(int64(capPages)*64, 64)
		for _, a := range accesses {
			c.Touch(0, int64(a%64))
			if c.Len() > capPages {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCacheWarm(t *testing.T) {
	c := NewPageCache(10*4096, 4096)
	c.Warm(0, 7)
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatal("Warm must not count accesses")
	}
	if !c.Touch(0, 7) {
		t.Fatal("warmed page should hit")
	}
	c.Warm(0, 7) // idempotent refresh
	if c.Len() != 1 {
		t.Fatal("re-warming duplicated entry")
	}
}

func TestHitRatio(t *testing.T) {
	var s CacheStats
	if s.HitRatio() != 0 {
		t.Fatal("empty stats should report 0")
	}
	s = CacheStats{Hits: 3, Misses: 1}
	if s.HitRatio() != 0.75 {
		t.Fatalf("HitRatio = %v", s.HitRatio())
	}
}

func TestReadAtHitVsMissTiming(t *testing.T) {
	fs := testFS(t)
	f := mustCreate(t, fs, "t", 1<<20)
	h := NewHost(fs, 1<<20)
	missDone := h.ReadAt(0, f, 0, 128)
	fs.Device().ResetTime()
	hitDone := h.ReadAt(0, f, 0, 128)
	if hitDone != params.PageCacheHitCost {
		t.Fatalf("hit cost = %v, want %v", hitDone, params.PageCacheHitCost)
	}
	if missDone <= hitDone*5 {
		t.Fatalf("miss (%v) should be much slower than hit (%v)", missDone, hitDone)
	}
}

func TestReadAmplificationVectorReads(t *testing.T) {
	fs := testFS(t)
	f := mustCreate(t, fs, "t", 4<<20)
	h := NewHost(fs, 0) // no cache: every read goes to the device
	// 64 reads of 128 bytes from distinct pages.
	for i := 0; i < 64; i++ {
		h.ReadAt(0, f, int64(i)*4096, 128)
	}
	s := h.Stats()
	if s.BytesRequested != 64*128 {
		t.Fatalf("BytesRequested = %d", s.BytesRequested)
	}
	if s.BytesFromDevice != 64*4096 {
		t.Fatalf("BytesFromDevice = %d", s.BytesFromDevice)
	}
	// Amplification = PageSize/EVsize = 32x for 128-byte vectors,
	// the upper bound of Fig. 3's range.
	if amp := s.Amplification(); amp != 32 {
		t.Fatalf("amplification = %v, want 32", amp)
	}
}

func TestReadCrossingPages(t *testing.T) {
	fs := testFS(t)
	f := mustCreate(t, fs, "t", 64<<10)
	h := NewHost(fs, 1<<20)
	done := h.ReadAt(0, f, 4000, 200) // spans 2 pages
	if h.Stats().DeviceReads != 2 {
		t.Fatalf("DeviceReads = %d, want 2", h.Stats().DeviceReads)
	}
	if done == 0 {
		t.Fatal("zero completion time")
	}
}

func TestReadMMIOBypassesCache(t *testing.T) {
	fs := testFS(t)
	f := mustCreate(t, fs, "t", 1<<20)
	h := NewHost(fs, 1<<20)
	h.ReadMMIO(0, f, 0, 128)
	h.ReadMMIO(0, f, 0, 128) // same page again: still device traffic
	if h.Stats().DeviceReads != 2 {
		t.Fatalf("DeviceReads = %d, want 2 (MMIO must not cache)", h.Stats().DeviceReads)
	}
	if h.Cache().Len() != 0 {
		t.Fatal("MMIO path must not populate the page cache")
	}
	if dev := fs.Device().Stats(); dev.BlockReads != 0 {
		t.Fatal("MMIO path must bypass the NVMe block path")
	}
}

func TestReadMMIOFasterThanFS(t *testing.T) {
	fs := testFS(t)
	f := mustCreate(t, fs, "t", 1<<20)
	h := NewHost(fs, 0)
	fsDone := h.ReadAt(0, f, 0, 128)
	fs.Device().ResetTime()
	mmioDone := h.ReadMMIO(0, f, 4096, 128)
	if mmioDone >= fsDone {
		t.Fatalf("MMIO read (%v) should beat FS read (%v)", mmioDone, fsDone)
	}
}

func TestWarmHost(t *testing.T) {
	fs := testFS(t)
	f := mustCreate(t, fs, "t", 1<<20)
	h := NewHost(fs, 1<<20)
	h.Warm(f, 0, 8192)
	if h.Cache().Len() != 2 {
		t.Fatalf("warmed %d pages, want 2", h.Cache().Len())
	}
	if s := h.Stats(); s.BytesFromDevice != 0 {
		t.Fatal("warming must not count traffic")
	}
	done := h.ReadAt(0, f, 0, 128)
	if done != params.PageCacheHitCost {
		t.Fatal("read after warm should hit")
	}
}

func TestReadAtZeroLength(t *testing.T) {
	fs := testFS(t)
	f := mustCreate(t, fs, "t", 4096)
	h := NewHost(fs, 0)
	if done := h.ReadAt(5, f, 0, 0); done != 5 {
		t.Fatal("zero-length read should be a no-op")
	}
}

func TestResetStats(t *testing.T) {
	fs := testFS(t)
	f := mustCreate(t, fs, "t", 1<<20)
	h := NewHost(fs, 1<<20)
	h.ReadAt(0, f, 0, 128)
	h.ResetStats()
	if h.Stats() != (IOStats{}) {
		t.Fatal("ResetStats failed")
	}
	if h.Cache().Stats() != (CacheStats{}) {
		t.Fatal("cache stats not reset")
	}
	if h.Cache().Len() == 0 {
		t.Fatal("cache contents should persist across ResetStats")
	}
}

func TestReadaheadTrafficAndCaching(t *testing.T) {
	fs := testFS(t)
	f := mustCreate(t, fs, "t", 1<<20)
	h := NewHost(fs, 1<<20)
	h.SetReadahead(2)
	h.ReadAt(0, f, 0, 128) // miss page 0 -> readahead pages 1, 2
	s := h.Stats()
	if s.DeviceReads != 3 {
		t.Fatalf("DeviceReads = %d, want 3 (1 miss + 2 readahead)", s.DeviceReads)
	}
	if s.BytesFromDevice != 3*4096 {
		t.Fatalf("BytesFromDevice = %d", s.BytesFromDevice)
	}
	// The readahead pages must now hit without device traffic.
	before := h.Stats().DeviceReads
	done := h.ReadAt(0, f, 4096, 128)
	if h.Stats().DeviceReads != before {
		t.Fatal("readahead page should hit")
	}
	if done != params.PageCacheHitCost {
		t.Fatalf("hit cost = %v", done)
	}
}

func TestReadaheadCanExceedVectorCeiling(t *testing.T) {
	// With readahead, amplification exceeds PageSize/EVsize — matching
	// the paper's RMC2 measurement (17.9x > the 16x ceiling).
	fs := testFS(t)
	f := mustCreate(t, fs, "t", 4<<20)
	h := NewHost(fs, 0) // cacheless: misses everywhere
	h.SetReadahead(1)
	for i := 0; i < 32; i++ {
		h.ReadAt(0, f, int64(i)*3*4096, 128) // stride avoids readahead reuse
	}
	if amp := h.Stats().Amplification(); amp <= 32 {
		t.Fatalf("amplification = %v, want > 32 with readahead", amp)
	}
}

func TestReadaheadStopsAtFileEnd(t *testing.T) {
	fs := testFS(t)
	f := mustCreate(t, fs, "t", 2*4096)
	h := NewHost(fs, 1<<20)
	h.SetReadahead(8)
	h.ReadAt(0, f, 4096, 128) // last page: nothing to read ahead
	if h.Stats().DeviceReads != 1 {
		t.Fatalf("DeviceReads = %d, want 1 (no readahead past EOF)", h.Stats().DeviceReads)
	}
}

func TestSetReadaheadNegativeClamps(t *testing.T) {
	fs := testFS(t)
	h := NewHost(fs, 0)
	h.SetReadahead(-5)
	f := mustCreate(t, fs, "t", 1<<20)
	h.ReadAt(0, f, 0, 128)
	if h.Stats().DeviceReads != 1 {
		t.Fatal("negative readahead should clamp to 0")
	}
}
