package ssd

import (
	"encoding/binary"
	"strings"
	"testing"

	"rmssd/internal/flash"
	"rmssd/internal/params"
	"rmssd/internal/sim"
)

func testDevice(t *testing.T) *Device {
	t.Helper()
	geo := flash.Geometry{
		Channels:       4,
		DiesPerChannel: 4,
		PlanesPerDie:   2,
		BlocksPerPlane: 8,
		PagesPerBlock:  16,
		PageSize:       4096,
	}
	return MustNew(geo)
}

func TestQD1Random4KRateMatchesTableII(t *testing.T) {
	d := testDevice(t)
	// Serial (queue-depth-1) page reads at random LPNs.
	const n = 200
	var now sim.Time
	for i := 0; i < n; i++ {
		lpn := int64((i * 37) % int(d.TotalPages()))
		now = d.ReadPage(now, lpn)
	}
	iops := float64(n) / now.Seconds()
	// Table II: 45K IOPS. Accept +-15%.
	if iops < 38_000 || iops > 52_000 {
		t.Fatalf("QD1 4K read rate = %.0f IOPS, want ~45K", iops)
	}
}

func TestBlockReadBeatsNothingButParallelismHelps(t *testing.T) {
	d := testDevice(t)
	// High queue depth: issue 64 reads at t=0 across channels; completion
	// should be far better than 64 serial reads.
	var last sim.Time
	for i := 0; i < 64; i++ {
		done := d.ReadPage(0, int64(i))
		last = sim.Max(last, done)
	}
	serial := 64 * (params.NVMeCmdCost + params.TPage + params.NVMeCompletionCost)
	if last >= serial/2 {
		t.Fatalf("QD64 completion %v shows no parallelism (serial would be %v)", last, serial)
	}
}

func TestReadVectorBypassesNVMe(t *testing.T) {
	d := testDevice(t)
	done, err := d.ReadVectorAt(0, 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	want := params.Duration(params.FTLCycles + params.FlushCycles + params.VectorTransferCycles(128))
	if done != want {
		t.Fatalf("vector read latency = %v, want %v", done, want)
	}
	if d.nvme.Served() != 0 {
		t.Fatal("vector read must not touch the NVMe controller")
	}
}

func TestReadVectorAddressing(t *testing.T) {
	d := testDevice(t)
	// Write a recognisable page, then read a vector out of its middle.
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i % 251)
	}
	const lpn = 5
	d.WritePageUntimed(lpn, page)
	byteAddr := int64(lpn*4096 + 256)
	if _, err := d.ReadVectorAt(0, byteAddr, 128); err != nil {
		t.Fatal(err)
	}
	got := d.PeekRange(byteAddr, 128)
	for i := range got {
		if got[i] != byte((256+i)%251) {
			t.Fatalf("vector byte %d = %d, want %d", i, got[i], byte((256+i)%251))
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := testDevice(t)
	data := make([]byte, 4096)
	binary.LittleEndian.PutUint32(data, 0xabcd1234)
	done := d.WritePage(0, 7, data)
	d.ReadPage(done, 7)
	if got := d.PeekPage(7); binary.LittleEndian.Uint32(got) != 0xabcd1234 {
		t.Fatal("round trip failed")
	}
}

func TestStatsCounting(t *testing.T) {
	d := testDevice(t)
	d.ReadPage(0, 0)
	d.ReadPage(0, 1)
	d.WritePage(0, 2, []byte{1})
	if _, err := d.ReadVectorAt(0, 0, 128); err != nil {
		t.Fatal(err)
	}
	d.ReadPageInternal(0, 3)
	s := d.Stats()
	if s.BlockReads != 2 || s.BlockWrites != 1 || s.EVReads != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.HostBytesRead != 2*4096 {
		t.Fatalf("HostBytesRead = %d, want %d", s.HostBytesRead, 2*4096)
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Fatal("ResetStats failed")
	}
}

func TestFlashStatsDistinguishVectorReads(t *testing.T) {
	d := testDevice(t)
	if _, err := d.ReadVectorAt(0, 0, 128); err != nil {
		t.Fatal(err)
	}
	d.ReadPageInternal(0, 1)
	fs := d.Array().Stats()
	if fs.VectorReads != 1 || fs.PageReads != 1 {
		t.Fatalf("flash stats = %+v", fs)
	}
	// Bus traffic: 128 bytes for the vector, 4096 for the page.
	if fs.BytesTransferred != 128+4096 {
		t.Fatalf("BytesTransferred = %d", fs.BytesTransferred)
	}
}

func TestResetTime(t *testing.T) {
	d := testDevice(t)
	d.ReadPage(0, 0)
	if d.Drained() == 0 {
		t.Fatal("expected busy device")
	}
	d.ResetTime()
	if d.Drained() != 0 {
		t.Fatal("ResetTime did not idle the device")
	}
}

func TestDefaultDevice(t *testing.T) {
	d := Default()
	if d.PageSize() != params.PageSize {
		t.Fatalf("page size = %d", d.PageSize())
	}
	want := int64(params.SSDCapacityBytes / params.PageSize)
	if got := d.TotalPages(); got > want || got < want-want/100 {
		t.Fatalf("total pages = %d, want ~%d", got, want)
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(flash.Geometry{}); err == nil {
		t.Fatal("expected error for zero geometry")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on bad geometry")
		}
	}()
	MustNew(flash.Geometry{})
}

// Internal engine reads and block I/O share the flash: both paths must make
// progress and the shared-resource contention must be visible in timing.
func TestSharedFlashContention(t *testing.T) {
	d := testDevice(t)
	aloneDone, aErr := d.ReadVectorAt(0, 0, 128)
	d.ResetTime()
	// Occupy channel 0's die 0 with a block read first.
	d.ReadPage(0, 0) // LPN 0 -> channel 0, die 0
	contendedDone, cErr := d.ReadVectorAt(0, 0, 128)
	if aErr != nil || cErr != nil {
		t.Fatal(aErr, cErr)
	}
	if contendedDone <= aloneDone {
		t.Fatalf("contended vector read (%v) should be slower than alone (%v)", contendedDone, aloneDone)
	}
}

// TestFillerSynthesis: a never-written page reads through the filler, which
// is handed the page's logical number, by every peek, before any page is
// written and after; a written page shadows it.
func TestFillerSynthesis(t *testing.T) {
	d := testDevice(t)
	ps := d.PageSize()
	d.SetFiller(func(lpn int64, col int, buf []byte) {
		full := make([]byte, ps)
		binary.LittleEndian.PutUint64(full, uint64(lpn))
		binary.LittleEndian.PutUint64(full[256:], uint64(lpn)+1)
		copy(buf, full[col:])
	})
	const lpn = 37
	if got := d.PeekPage(lpn); binary.LittleEndian.Uint64(got) != lpn {
		t.Fatal("filler content mismatch")
	}
	addr := int64(lpn*ps + 256)
	if got := d.PeekRange(addr, 8); binary.LittleEndian.Uint64(got) != lpn+1 {
		t.Fatalf("PeekRange at column 256 = %v, want the filler's %d", got, lpn+1)
	}
	r := d.PrepareVectorRead(0, addr, 8)
	got := make([]byte, 8)
	d.PeekVectorInto(&r, got)
	if binary.LittleEndian.Uint64(got) != lpn+1 {
		t.Fatalf("PeekVectorInto = %v, want the filler's %d", got, lpn+1)
	}
	// Written pages shadow the filler.
	d.WritePageUntimed(lpn, []byte{0xff})
	if got := d.PeekPage(lpn); got[0] != 0xff || got[256] != 0 {
		t.Fatal("written page did not shadow filler")
	}
	d.PeekVectorInto(&r, got)
	if binary.LittleEndian.Uint64(got) != 0 {
		t.Fatalf("PeekVectorInto of a written page = %v, want its zeros", got)
	}
	if got := d.PeekRange(addr-256, 8); got[0] != 0xff {
		t.Fatalf("PeekRange of a written page = %v, want its bytes", got)
	}
	if got := d.PeekRange(addr+int64(ps), 8); binary.LittleEndian.Uint64(got) != lpn+2 {
		t.Fatalf("PeekRange of the next, unwritten page = %v, want the filler's %d", got, lpn+2)
	}
}

// A byte address just below zero splits into page 0 and a negative column:
// the peek must fail loudly in the flash array, not hand the filler col < 0.
func TestPeekNegativeAddressPanics(t *testing.T) {
	d := testDevice(t)
	d.SetFiller(func(lpn int64, col int, buf []byte) {
		t.Fatalf("filler called with lpn %d, col %d", lpn, col)
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "flash:") {
			t.Fatalf("PeekRangeInto(-8) panicked with %q, want a flash: panic", msg)
		}
	}()
	d.PeekRangeInto(-8, make([]byte, 8))
}

func TestDynamicDeviceRejectsFiller(t *testing.T) {
	d := MustNewDynamic(testDevice(t).Array().Geometry())
	defer func() {
		if recover() == nil {
			t.Fatal("SetFiller on a dynamic device did not panic")
		}
	}()
	d.SetFiller(func(int64, int, []byte) {})
}

// A page read out of the device is the caller's copy: writing into it must
// not rewrite the stored page.
func TestPeekPageReturnsCopy(t *testing.T) {
	d := testDevice(t)
	page := make([]byte, 4096)
	page[10] = 0x5a
	const lpn = 3
	d.WritePageUntimed(lpn, page)
	got := d.PeekPage(lpn)
	got[10] = 0xa5
	if again := d.PeekPage(lpn); again[10] != 0x5a {
		t.Fatalf("stored byte = %#x after mutating a peeked copy, want 0x5a", again[10])
	}
}

// TestReadsDoNotAllocate pins the read paths of a linear device at zero
// heap allocations once warm. Every run issues 16 reads of each kind:
// testing.AllocsPerRun divides by the run count in integers, so a path that
// allocated on one read in eight would still report a nonzero average.
func TestReadsDoNotAllocate(t *testing.T) {
	d := testDevice(t)
	ps := int64(d.PageSize())
	const reads = 16
	var at sim.Time
	allocs := testing.AllocsPerRun(50, func() {
		for i := int64(0); i < reads; i++ {
			lpn := (i * 7) % d.TotalPages()
			at = d.ReadPage(at, lpn)
			at = d.ReadPageInternal(at, lpn+1)
			done, err := d.ReadVectorAt(at, (lpn+2)*ps+128, 128)
			if err != nil {
				t.Fatal(err)
			}
			at = done
			at = d.PrepareVectorRead(at, (lpn+3)*ps+256, 128).Start
		}
	})
	if allocs != 0 {
		t.Fatalf("%d reads of each kind allocate %v times, want 0", reads, allocs)
	}
}
