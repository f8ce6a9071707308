package ssd

import (
	"rmssd/internal/flash"
	"rmssd/internal/params"
	"rmssd/internal/sim"
)

// VectorRead is a translated, ready-to-schedule in-storage vector read: the
// output of the sequential prepare phase of a lane-parallel lookup batch.
// PrepareVectorRead performs everything ReadVectorAt does that touches
// shared device state — FTL translation and device counters — so the
// remaining flash scheduling can run on a per-channel lane goroutine with no
// shared writes.
type VectorRead struct {
	PPA    flash.PPA
	Col    int
	Size   int
	Mapped bool     // false: never-written page on a dynamic device; its bytes are zeros
	Start  sim.Time // earliest flash start time (issue + FTL translation)
}

// PrepareVectorRead translates one in-storage vector read without scheduling
// its flash time. Calling flash.Lane.ReadVector(r.Start, r.PPA, r.Col,
// r.Size) afterwards — in the same per-channel order the device would have
// seen — reproduces ReadVectorAt's timing exactly; unmapped reads complete
// at r.Start and never touch flash, also exactly as ReadVectorAt. Like
// ReadVectorAt, neither carries bytes: the vector's contents are
// Array.PeekRangeInto(r.PPA, r.Col, dst) for a mapped read and zeros for an
// unmapped one, the same bytes PeekRangeInto gives at its logical address.
// The read is counted in Stats.EVReads here; ReadVectorAt is this call
// followed by the flash read.
func (d *Device) PrepareVectorRead(at sim.Time, byteAddr int64, size int) VectorRead {
	lpn := byteAddr / int64(d.PageSize())
	col := int(byteAddr % int64(d.PageSize()))
	ppa, mapped := d.translateRead(lpn)
	d.stats.EVReads++
	return VectorRead{PPA: ppa, Col: col, Size: size, Mapped: mapped, Start: at + params.Duration(params.FTLCycles)}
}

// Channels returns the number of flash channels — the lane count of a
// parallel lookup schedule.
func (d *Device) Channels() int { return d.arr.Geometry().Channels }
