// Package ssd assembles the simulated NVMe SSD from its parts: the flash
// array, the FTL and the NVMe controller front-end. It exposes two request
// paths, mirroring Fig. 5:
//
//   - the conventional block path (ReadPage/WritePage), used by the file
//     system underneath the host baselines, charged NVMe command and
//     completion costs and calibrated to Table II's 45K random-4K IOPS at
//     queue depth 1;
//   - the in-storage path (ReadVectorAt/ReadPageInternal), used by the
//     embedding engines, which bypasses the NVMe controller entirely and
//     pays only FTL translation plus flash time.
//
// The two paths share the FTL and the flash array and contend only through
// die and channel reservations, in time order; the paper's round-robin MUX
// and Path Buffer in front of the FTL are not modelled.
//
// Reads on either path return only their completion time (and, for a
// vector read, the injected-fault error). Contents are untimed:
// PeekRangeInto copies a range into the caller's buffer, PeekPage returns a
// copy of a whole page and PeekVectorInto copies a prepared vector read's
// bytes, each through the same FTL translation a timed read of that
// address would use. A written page's bytes come from the flash page
// store; a never-written page of a linear device reads through the
// device's Filler, which is handed the logical page the read names.
package ssd

import (
	"fmt"

	"rmssd/internal/flash"
	"rmssd/internal/ftl"
	"rmssd/internal/params"
	"rmssd/internal/sim"
)

// Stats aggregates device-level counters used for I/O-traffic reporting.
type Stats struct {
	BlockReads    int64
	BlockWrites   int64
	EVReads       int64
	HostBytesRead int64 // bytes returned across the NVMe interface
}

// Filler generates the contents of a linear device's never-written pages.
// The paper's experiments use 30 GB of embedding tables per model;
// materialising them would be wasteful when timing depends only on
// addresses and counts, so unwritten pages are synthesised on demand. The
// embedding layer installs a filler that derives each float32 from
// (table, row, element), making functional results reproducible while only
// the pages actually written ever exist in memory.
//
// The filler receives the logical page number, the starting byte offset
// within the page and the destination buffer; it must fill exactly
// len(buf) bytes. Range-based filling lets vector-grained reads synthesise
// 128-256 bytes instead of a whole 4 KiB page.
type Filler func(lpn int64, col int, buf []byte)

// Device is the simulated SSD.
type Device struct {
	arr   *flash.Array
	ftl   *ftl.FTL
	dyn   *ftl.DynamicFTL // non-nil when page-mapped (see dynamic.go)
	fill  Filler          // never-written pages of a linear device; nil: zeros
	nvme  *sim.Resource
	stats Stats
}

// New builds a device with the given flash geometry.
func New(geo flash.Geometry) (*Device, error) {
	arr, err := flash.NewArray(geo)
	if err != nil {
		return nil, err
	}
	return &Device{arr: arr, ftl: ftl.New(geo), nvme: sim.NewResource("nvme")}, nil
}

// MustNew is New, panicking on error; for configurations known statically.
func MustNew(geo flash.Geometry) *Device {
	d, err := New(geo)
	if err != nil {
		panic(fmt.Sprintf("ssd: %v", err))
	}
	return d
}

// Default returns a device with the Table II geometry.
func Default() *Device { return MustNew(flash.DefaultGeometry()) }

// SetFiller installs the content generator for pages of a linear device
// that were never written; written pages shadow it. Without one they read
// as zeros. It panics on a dynamic device, which maps only pages it has
// written.
func (d *Device) SetFiller(f Filler) {
	if d.dyn != nil {
		panic("ssd: a dynamic device has no filler")
	}
	d.fill = f
}

// Array exposes the flash array (for traffic stats).
func (d *Device) Array() *flash.Array { return d.arr }

// FTL exposes the translation layer.
func (d *Device) FTL() *ftl.FTL { return d.ftl }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats zeroes device and flash counters.
func (d *Device) ResetStats() {
	d.stats = Stats{}
	d.arr.ResetStats()
}

// ResetTime idles every timing resource without touching stored data.
func (d *Device) ResetTime() {
	d.arr.ResetTime()
	d.nvme.Reset()
}

// PageSize returns the device page size in bytes.
func (d *Device) PageSize() int { return d.arr.Geometry().PageSize }

// TotalPages returns the number of addressable logical pages.
func (d *Device) TotalPages() int64 { return d.ftl.TotalPages() }

// ReadPage serves a block-path page read: NVMe command processing, FTL
// translation, flash page read, completion. It returns the time the host
// observes completion. On a dynamic device, never-written pages complete
// straight from the controller without touching flash.
func (d *Device) ReadPage(at sim.Time, lpn int64) sim.Time {
	_, cmdDone := d.nvme.Acquire(at, params.NVMeCmdCost)
	ppa, mapped := d.TranslateRead(lpn)
	d.stats.BlockReads++
	d.stats.HostBytesRead += int64(d.PageSize())
	if !mapped {
		return cmdDone + params.NVMeCompletionCost
	}
	done := d.arr.ReadPage(cmdDone+params.Duration(params.FTLCycles), ppa)
	return done + params.NVMeCompletionCost
}

// WritePage serves a block-path page write (out of place with GC on
// dynamic devices).
func (d *Device) WritePage(at sim.Time, lpn int64, data []byte) sim.Time {
	if d.dyn != nil {
		return d.WritePageDynamic(at, lpn, data)
	}
	_, cmdDone := d.nvme.Acquire(at, params.NVMeCmdCost)
	ppa := d.ftl.Translate(lpn)
	done := d.arr.WritePage(cmdDone+params.Duration(params.FTLCycles), ppa, data)
	d.stats.BlockWrites++
	return done + params.NVMeCompletionCost
}

// ReadVectorAt serves an in-storage vector-grained read: the Embedding
// Lookup Engine's data path. byteAddr is the logical byte address of the
// vector (page-aligned layout guarantees it does not cross a page). The
// NVMe controller is not involved. It returns the completion time; the
// vector's bytes come from PeekRangeInto. Under a flash FaultPlan the read
// may fail with an error wrapping flash.ErrUncorrectable.
func (d *Device) ReadVectorAt(at sim.Time, byteAddr int64, size int) (sim.Time, error) {
	r := d.PrepareVectorRead(at, byteAddr, size)
	if !r.Mapped {
		return r.Start, nil
	}
	vt, err := d.arr.ReadVector(r.Start, r.PPA, r.Col, r.Size)
	return vt.Done, err
}

// ReadPageInternal serves an in-storage whole-page read (used by the
// page-grained ISC baselines, e.g. EMB-PageSum and EMB-MMIO's fetches) and
// returns its completion time.
func (d *Device) ReadPageInternal(at sim.Time, lpn int64) sim.Time {
	ppa, mapped := d.TranslateRead(lpn)
	d.stats.EVReads++
	if !mapped {
		return at + params.Duration(params.FTLCycles)
	}
	return d.arr.ReadPage(at+params.Duration(params.FTLCycles), ppa)
}

// PeekPage returns a copy of the page's contents with no timing side
// effects (zeros for a never-written page on a dynamic device). Writing
// into the result leaves the device untouched.
func (d *Device) PeekPage(lpn int64) []byte {
	buf := make([]byte, d.PageSize())
	ppa, mapped := d.TranslateRead(lpn)
	d.peekInto(lpn, ppa, mapped, 0, buf)
	return buf
}

// PeekRange returns a copy of the size bytes at the logical byte address
// with no timing side effects (PeekRangeInto into a fresh buffer).
func (d *Device) PeekRange(byteAddr int64, size int) []byte {
	buf := make([]byte, size)
	d.PeekRangeInto(byteAddr, buf)
	return buf
}

// PeekRangeInto copies the len(dst) bytes at the logical byte address into
// dst: the bytes a flash read of that address would return (zeros for a
// never-written page on a dynamic device), with no timing side effects and
// no allocation. The range must not cross a page boundary.
func (d *Device) PeekRangeInto(byteAddr int64, dst []byte) {
	lpn, col := d.split(byteAddr)
	ppa, mapped := d.TranslateRead(lpn)
	d.peekInto(lpn, ppa, mapped, col, dst)
}

// split returns the logical page holding a byte address and the address's
// offset within it.
func (d *Device) split(byteAddr int64) (lpn int64, col int) {
	ps := int64(d.PageSize())
	return byteAddr / ps, int(byteAddr % ps)
}

// peekInto copies the len(dst) bytes at column col of logical page lpn,
// which translates to ppa, into dst: zeros when the page is unmapped, the
// page store's bytes when it was written, and otherwise the filler's
// (zeros without one).
func (d *Device) peekInto(lpn int64, ppa flash.PPA, mapped bool, col int, dst []byte) {
	if !mapped {
		clear(dst)
		return
	}
	if !d.arr.PeekRangeInto(ppa, col, dst) && d.fill != nil {
		d.fill(lpn, col, dst)
	}
}

// WritePageUntimed stores page contents with no timing side effects. It is
// intended only for preloading embedding tables before a timed experiment
// phase: it resets all device timing resources to idle afterwards.
func (d *Device) WritePageUntimed(lpn int64, data []byte) {
	if d.dyn != nil {
		d.dynWrite(0, lpn, data)
	} else {
		d.arr.WritePage(0, d.ftl.Translate(lpn), data)
	}
	d.ResetTime()
}

// Drained returns the time at which all device resources go idle.
func (d *Device) Drained() sim.Time {
	return sim.Max(d.arr.Drained(), d.nvme.FreeAt())
}
