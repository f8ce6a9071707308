//go:build simdebug

package ftl

import (
	"fmt"

	"rmssd/internal/flash"
)

// Debug reports whether the simdebug runtime-invariant layer is compiled in.
const Debug = true

// debugLinearRoundTrip asserts that the linear mapping is a bijection: the
// PPA produced by Translate must lie inside the geometry and Inverse must
// map it back to the same LPN. The lookup engine schedules each read on
// p.Channel's bus and dies, so a PPA outside the geometry — or a mapping
// that is not its own inverse — silently routes vectors to the wrong
// channel and corrupts the per-channel schedules every timeline depends on.
func debugLinearRoundTrip(f *FTL, lpn int64, p flash.PPA) {
	g := f.geo
	if p.Channel < 0 || p.Channel >= g.Channels ||
		p.Die < 0 || p.Die >= g.DiesPerChannel ||
		p.Plane < 0 || p.Plane >= g.PlanesPerDie ||
		p.Block < 0 || p.Block >= g.BlocksPerPlane ||
		p.Page < 0 || p.Page >= g.PagesPerBlock {
		panic(fmt.Sprintf("ftl: invariant violated: Translate(%d) = %+v outside geometry %+v", lpn, p, g))
	}
	if back := f.Inverse(p); back != lpn {
		panic(fmt.Sprintf("ftl: invariant violated: Inverse(Translate(%d)) = %d", lpn, back))
	}
}

// debugLBARoundTrip asserts the Fig. 7 format conversion loses nothing: the
// (page, column) pair must reconstruct the original sector LBA.
func debugLBARoundTrip(f *FTL, lba, lpn int64, col int) {
	if back := f.PageToLBA(lpn) + int64(col/SectorSize); back != lba {
		panic(fmt.Sprintf("ftl: invariant violated: LBAToPage(%d) = (%d,%d) reconstructs %d", lba, lpn, col, back))
	}
}

// debugDynMapping asserts the page-mapped FTL's two tables stay mutual
// inverses after every mapping update (host write, GC relocation, lookup):
// l2p[lpn] and p2l[flat] must point at each other, and the flat physical
// index must survive the PPA round trip through the geometry. A one-sided
// update here means GC would relocate the wrong page or count a live page
// as garbage.
func debugDynMapping(d *DynamicFTL, lpn, flat int64) {
	if d.l2p[lpn] != flat {
		panic(fmt.Sprintf("ftl: invariant violated: l2p[%d] = %d, want %d", lpn, d.l2p[lpn], flat))
	}
	if d.p2l[flat] != lpn {
		panic(fmt.Sprintf("ftl: invariant violated: p2l[%d] = %d, want %d", flat, d.p2l[flat], lpn))
	}
	if rt := int64(d.geo.FlatIndex(d.ppaOf(flat))); rt != flat {
		panic(fmt.Sprintf("ftl: invariant violated: flat index %d round-trips to %d", flat, rt))
	}
}
