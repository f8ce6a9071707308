package ssd

import (
	"fmt"

	"rmssd/internal/flash"
	"rmssd/internal/ftl"
	"rmssd/internal/params"
	"rmssd/internal/sim"
)

// Dynamic-mapping support. The paper's emulated SSD uses a linear map
// (tables are written once, then only read), which Device implements by
// default. Production devices take writes during service — embedding-table
// refreshes, filesystem metadata — so the device can alternatively run on
// the page-mapped, garbage-collected FTL of internal/ftl. Reads of
// never-written logical pages return zeros from the controller without
// touching flash, as real SSDs do.

// NewDynamic builds a device whose logical-to-physical mapping is
// page-mapped with out-of-place writes and greedy GC. Unlike the default
// linear device, all data must be physically written before it can be read
// (there is no deterministic filler: physical placement changes over time).
func NewDynamic(geo flash.Geometry) (*Device, error) {
	d, err := New(geo)
	if err != nil {
		return nil, err
	}
	d.dyn = ftl.NewDynamic(geo)
	return d, nil
}

// MustNewDynamic is NewDynamic, panicking on error.
func MustNewDynamic(geo flash.Geometry) *Device {
	d, err := NewDynamic(geo)
	if err != nil {
		panic(fmt.Sprintf("ssd: %v", err))
	}
	return d
}

// IsDynamic reports whether the device uses the page-mapped FTL.
func (d *Device) IsDynamic() bool { return d.dyn != nil }

// DynamicStats returns write-path counters (zero value on linear devices).
func (d *Device) DynamicStats() ftl.DynamicStats {
	if d.dyn == nil {
		return ftl.DynamicStats{}
	}
	return d.dyn.Stats()
}

// TranslateRead resolves a logical page for reading, untimed and
// uncounted: the physical page a read of lpn lands on. On the linear device
// every page is mapped; on the dynamic device unwritten pages report
// mapped = false and the caller serves zeros from the controller.
func (d *Device) TranslateRead(lpn int64) (flash.PPA, bool) {
	if d.dyn == nil {
		return d.ftl.Translate(lpn), true
	}
	return d.dyn.Translate(lpn)
}

// dynWrite maps lpn out of place and charges any GC relocations: each
// relocation costs a page read plus a page program on the destination, and
// moves the stored bytes so the contents follow the mapping.
func (d *Device) dynWrite(at sim.Time, lpn int64, data []byte) sim.Time {
	ppa, relocs := d.dyn.Write(lpn)
	now := at
	for _, r := range relocs {
		readDone := d.arr.ReadPage(now, r.From)
		done := d.arr.WritePage(readDone, r.To, d.arr.PeekPage(r.From))
		now = done
	}
	// Erase freed victims: the die is busy in the background, so later
	// operations on it queue behind the erase, but this write does not
	// wait for it.
	for _, blk := range d.dyn.TakePendingErases() {
		d.arr.EraseBlock(now, blk)
	}
	return d.arr.WritePage(now, ppa, data)
}

// WritePageDynamic serves a block-path write on the dynamic device.
func (d *Device) WritePageDynamic(at sim.Time, lpn int64, data []byte) sim.Time {
	if d.dyn == nil {
		return d.WritePage(at, lpn, data)
	}
	_, cmdDone := d.nvme.Acquire(at, params.NVMeCmdCost)
	done := d.dynWrite(cmdDone+params.Duration(params.FTLCycles), lpn, data)
	d.stats.BlockWrites++
	return done + params.NVMeCompletionCost
}
