package ssd

import (
	"bytes"
	"testing"

	"rmssd/internal/flash"
	"rmssd/internal/sim"
)

func dynDevice(t *testing.T) *Device {
	t.Helper()
	return MustNewDynamic(flash.Geometry{
		Channels:       2,
		DiesPerChannel: 2,
		PlanesPerDie:   1,
		BlocksPerPlane: 8,
		PagesPerBlock:  4,
		PageSize:       4096,
	})
}

func TestDynamicDeviceWriteReadRoundTrip(t *testing.T) {
	d := dynDevice(t)
	data := make([]byte, 4096)
	data[0], data[4095] = 0xaa, 0x55
	done := d.WritePage(0, 9, data)
	d.ReadPage(done, 9)
	if got := d.PeekPage(9); !bytes.Equal(got, data) {
		t.Fatal("round trip failed")
	}
}

func TestDynamicDeviceUnmappedReadsReturnZeros(t *testing.T) {
	d := dynDevice(t)
	done := d.ReadPage(0, 5)
	for _, b := range d.PeekPage(5) {
		if b != 0 {
			t.Fatal("unmapped page should read as zeros")
		}
	}
	// Controller-only: far below a flash page read.
	if done >= 10*sim.Time(1000*20) { // 20us
		t.Fatalf("unmapped read took %v, should be controller-only", done)
	}
	if d.Array().Stats().PageReads != 0 {
		t.Fatal("unmapped read must not touch flash")
	}
	if v := d.PeekRange(5*4096+128, 64); len(v) != 64 {
		t.Fatal("PeekRange on unmapped page broken")
	}
}

func TestDynamicDeviceOverwriteFollowsMapping(t *testing.T) {
	d := dynDevice(t)
	a := make([]byte, 4096)
	a[0] = 1
	b := make([]byte, 4096)
	b[0] = 2
	d.WritePageUntimed(3, a)
	d.WritePageUntimed(3, b)
	if got := d.PeekPage(3); got[0] != 2 {
		t.Fatalf("read after overwrite = %d, want 2", got[0])
	}
}

func TestDynamicDeviceGCMovesData(t *testing.T) {
	d := dynDevice(t)
	// Write a recognisable cold page, then churn until GC relocates it.
	cold := make([]byte, 4096)
	cold[100] = 0x77
	d.WritePageUntimed(0, cold)
	// High utilization (101 of 128 pages) forces GC victims to carry
	// valid pages.
	churn := make([]byte, 4096)
	for i := 0; i < 1500; i++ {
		churn[0] = byte(i)
		d.WritePageUntimed(int64(1+i%100), churn)
	}
	if d.DynamicStats().GCCopies == 0 {
		t.Fatal("expected GC copies under churn")
	}
	if got := d.PeekPage(0); got[100] != 0x77 {
		t.Fatal("cold page contents lost across GC relocation")
	}
}

func TestDynamicDeviceWriteTimingIncludesGC(t *testing.T) {
	d := dynDevice(t)
	// Fill to high utilization.
	page := make([]byte, 4096)
	for lpn := int64(0); lpn < 100; lpn++ {
		d.WritePageUntimed(lpn, page)
	}
	// A timed write that triggers relocations must cost more than a bare
	// program.
	var worst sim.Time
	now := sim.Time(0)
	for i := 0; i < 50; i++ {
		d.ResetTime()
		done := d.WritePage(0, int64(i%100), page)
		if done-now > worst {
			worst = done - now
		}
	}
	bare := d2BareWrite(t)
	if worst <= bare {
		t.Fatalf("worst GC-laden write (%v) not above bare write (%v)", worst, bare)
	}
}

func d2BareWrite(t *testing.T) sim.Time {
	t.Helper()
	d := dynDevice(t)
	return d.WritePage(0, 0, make([]byte, 4096))
}

func TestLinearDeviceDynamicAccessors(t *testing.T) {
	d := testDevice(t)
	if d.IsDynamic() {
		t.Fatal("linear device reports dynamic")
	}
	if d.DynamicStats().HostWrites != 0 {
		t.Fatal("linear device should report zero dynamic stats")
	}
	dd := dynDevice(t)
	if !dd.IsDynamic() {
		t.Fatal("dynamic device not reporting dynamic")
	}
}

func TestDynamicDeviceVectorReads(t *testing.T) {
	d := dynDevice(t)
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i % 7)
	}
	d.WritePageUntimed(2, page)
	done, err := d.ReadVectorAt(0, 2*4096+256, 128)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("mapped vector read must take flash time")
	}
	got := d.PeekRange(2*4096+256, 128)
	for i := range got {
		if got[i] != byte((256+i)%7) {
			t.Fatal("vector data mismatch on dynamic device")
		}
	}
}

func TestDynamicDeviceChargesErases(t *testing.T) {
	d := dynDevice(t)
	page := make([]byte, 4096)
	for i := 0; i < 1500; i++ {
		d.WritePageUntimed(int64(i%100), page)
	}
	if d.DynamicStats().Erases == 0 {
		t.Fatal("no GC erases under churn")
	}
	if d.Array().Stats().Erases != d.DynamicStats().Erases {
		t.Fatalf("flash erases (%d) != FTL erases (%d): erase time not charged",
			d.Array().Stats().Erases, d.DynamicStats().Erases)
	}
	if d.Array().MaxWear() == 0 {
		t.Fatal("wear counters not advancing")
	}
}
