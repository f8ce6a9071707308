package hostio

import (
	"bytes"
	"testing"
	"testing/quick"

	"rmssd/internal/flash"
	"rmssd/internal/params"
	"rmssd/internal/sim"
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
	if c.lru.Contains(pageKey(0, 2)) {
		t.Fatal("page 2 should have been evicted")
	}
	if !c.lru.Contains(pageKey(0, 1)) || !c.lru.Contains(pageKey(0, 3)) || !c.lru.Contains(pageKey(0, 4)) {
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

// ReadAt, ReadMMIO and Warm share one page walk: a range crossing a page
// boundary, and one crossing an extent boundary, touch the same two pages
// through each of them. ReadAt and Warm leave exactly those pages resident,
// and ReadAt and ReadMMIO issue one device read per page on their channels.
func TestReadCrossingPages(t *testing.T) {
	const ps = 4096
	for _, tc := range []struct {
		name string
		off  int64
		n    int
	}{
		{"page", ps - 96, 200},      // pages 0 and 1 of the first extent
		{"extent", 2*ps - 100, 300}, // last page of extent 0, first of extent 1
	} {
		t.Run(tc.name, func(t *testing.T) {
			walk := func(do func(h *Host, f *File)) (*Host, *File) {
				fs := NewFS(testFS(t).Device(), 2*ps) // two-page extents
				mustCreate(t, fs, "pad", ps)          // the file starts off page 0
				f := mustCreate(t, fs, "t", 8*ps)
				h := NewHost(fs, 1<<20)
				do(h, f)
				return h, f
			}
			var done sim.Time
			read, f := walk(func(h *Host, f *File) { done = h.ReadAt(0, f, tc.off, tc.n) })
			mmio, _ := walk(func(h *Host, f *File) { h.ReadMMIO(0, f, tc.off, tc.n) })
			warm, _ := walk(func(h *Host, f *File) { h.Warm(f, tc.off, tc.n) })

			end := tc.off + int64(tc.n) - 1
			if second := f.Extents()[1].FileOff; (tc.off < second && end >= second) != (tc.name == "extent") {
				t.Fatalf("range [%d, %d] vs extent boundary %d", tc.off, end, second)
			}
			want := []int64{f.PageOf(tc.off), f.PageOf(end)}
			if want[1] != want[0]+1 {
				t.Fatalf("range covers pages %v, want two adjacent", want)
			}
			for _, h := range []*Host{read, warm} {
				if h.Cache().Len() != len(want) {
					t.Fatalf("%d pages resident, want %v", h.Cache().Len(), want)
				}
				for _, lpn := range want {
					if !h.cache.lru.Contains(pageKey(f.ID(), lpn)) {
						t.Fatalf("page %d not resident, want %v", lpn, want)
					}
				}
			}
			if r, m := read.Stats().DeviceReads, mmio.Stats().DeviceReads; r != 2 || m != 2 {
				t.Fatalf("DeviceReads: ReadAt %d, ReadMMIO %d, want 2", r, m)
			}
			if done == 0 {
				t.Fatal("zero completion time")
			}
			if w := warm.Stats().DeviceReads; w != 0 {
				t.Fatalf("Warm counted %d device reads, want 0", w)
			}
			rc, mc := read.FS().Device().Array().ChannelIO(), mmio.FS().Device().Array().ChannelIO()
			for ch := range rc {
				if rc[ch].Reads != mc[ch].Reads {
					t.Fatalf("channel %d reads: ReadAt %d, ReadMMIO %d", ch, rc[ch].Reads, mc[ch].Reads)
				}
			}
		})
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
