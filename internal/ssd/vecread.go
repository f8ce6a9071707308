package ssd

import (
	"rmssd/internal/flash"
	"rmssd/internal/params"
	"rmssd/internal/sim"
)

// VectorRead is a translated, ready-to-schedule in-storage vector read: the
// output of a lookup batch's plan phase. PrepareVectorRead performs
// everything ReadVectorAt does before the flash read — FTL translation and
// device counters — so a batch can translate all its reads, and abort on a
// bad one, before it schedules any flash time.
type VectorRead struct {
	LPN    int64 // the logical page PPA translates
	PPA    flash.PPA
	Col    int
	Size   int
	Mapped bool     // false: never-written page on a dynamic device; its bytes are zeros
	Start  sim.Time // earliest flash start time (issue + FTL translation)
}

// PrepareVectorRead translates one in-storage vector read without scheduling
// its flash time. Calling flash.Array.ReadVector(r.Start, r.PPA, r.Col,
// r.Size) afterwards — in the same per-channel order the device would have
// seen — reproduces ReadVectorAt's timing exactly; unmapped reads complete
// at r.Start and never touch flash, also exactly as ReadVectorAt. Like
// ReadVectorAt, neither carries bytes: PeekVectorInto copies the vector's
// contents, the same bytes PeekRangeInto gives at its logical address.
// The read is counted in Stats.EVReads here; ReadVectorAt is this call
// followed by the flash read.
func (d *Device) PrepareVectorRead(at sim.Time, byteAddr int64, size int) VectorRead {
	lpn, col := d.split(byteAddr)
	ppa, mapped := d.TranslateRead(lpn)
	d.stats.EVReads++
	return VectorRead{LPN: lpn, PPA: ppa, Col: col, Size: size, Mapped: mapped, Start: at + params.Duration(params.FTLCycles)}
}

// PeekVectorInto copies the bytes the prepared read r returns into dst
// (len(dst) = r.Size), untimed and without translating again: PeekRangeInto
// at r's logical address.
func (d *Device) PeekVectorInto(r *VectorRead, dst []byte) {
	d.peekInto(r.LPN, r.PPA, r.Mapped, r.Col, dst)
}
