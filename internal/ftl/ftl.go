// Package ftl implements the flash translation layer of the simulated SSD.
//
// The paper applies "the linear mapping function ... in the FTL design, and
// each page data are scattered around the four DDR4 chips for higher
// throughput" (Section V-A). Accordingly, the FTL here maps logical page
// numbers to physical pages with channel-first striping: consecutive logical
// pages land on consecutive channels, then dies, then planes, so both
// sequential scans and bulk embedding-vector reads spread across all the
// parallelism the array offers.
package ftl

import (
	"fmt"

	"rmssd/internal/flash"
)

// SectorSize is the logical block (LBA) granularity presented to the host.
const SectorSize = 512

// FTL translates logical page numbers (LPNs) to physical page addresses.
type FTL struct {
	geo        flash.Geometry
	sectorsPer int // sectors per page
}

// New creates a linear-mapping FTL over the given geometry.
func New(geo flash.Geometry) *FTL {
	if err := geo.Validate(); err != nil {
		panic(fmt.Sprintf("ftl: %v", err))
	}
	return &FTL{geo: geo, sectorsPer: geo.PageSize / SectorSize}
}

// Geometry returns the underlying flash geometry.
func (f *FTL) Geometry() flash.Geometry { return f.geo }

// TotalPages returns the number of mappable logical pages.
func (f *FTL) TotalPages() int64 { return int64(f.geo.TotalPages()) }

// Translate maps a logical page number to its physical page address using
// the linear striped mapping. It runs on every read, so it divides in 32
// bits, which is cheaper than 64: a valid geometry has at most 1<<32
// pages.
func (f *FTL) Translate(lpn int64) flash.PPA {
	if lpn < 0 || lpn >= f.TotalPages() {
		panic(fmt.Sprintf("ftl: LPN %d out of range [0,%d)", lpn, f.TotalPages()))
	}
	g := f.geo
	i := uint32(lpn)
	p := flash.PPA{}
	p.Channel = int(i % uint32(g.Channels))
	i /= uint32(g.Channels)
	p.Die = int(i % uint32(g.DiesPerChannel))
	i /= uint32(g.DiesPerChannel)
	p.Plane = int(i % uint32(g.PlanesPerDie))
	i /= uint32(g.PlanesPerDie)
	p.Page = int(i % uint32(g.PagesPerBlock))
	i /= uint32(g.PagesPerBlock)
	p.Block = int(i)
	debugLinearRoundTrip(f, lpn, p)
	return p
}

// Inverse maps a physical page address back to its logical page number.
func (f *FTL) Inverse(p flash.PPA) int64 {
	g := f.geo
	lpn := int64(p.Block)
	lpn = lpn*int64(g.PagesPerBlock) + int64(p.Page)
	lpn = lpn*int64(g.PlanesPerDie) + int64(p.Plane)
	lpn = lpn*int64(g.DiesPerChannel) + int64(p.Die)
	lpn = lpn*int64(g.Channels) + int64(p.Channel)
	return lpn
}

// LBAToPage converts a sector LBA to (logical page number, byte offset of
// the sector within the page). This is the Fig. 7 format conversion: the
// (LBA, logical size) pair becomes (PBA, physical size) with Col as the
// in-page read offset.
func (f *FTL) LBAToPage(lba int64) (lpn int64, col int) {
	if lba < 0 {
		panic(fmt.Sprintf("ftl: negative LBA %d", lba))
	}
	lpn, col = lba/int64(f.sectorsPer), int(lba%int64(f.sectorsPer))*SectorSize
	debugLBARoundTrip(f, lba, lpn, col)
	return lpn, col
}

// PageToLBA returns the first sector LBA of a logical page.
func (f *FTL) PageToLBA(lpn int64) int64 { return lpn * int64(f.sectorsPer) }

// SectorsPerPage returns the number of LBA sectors per flash page.
func (f *FTL) SectorsPerPage() int { return f.sectorsPer }
