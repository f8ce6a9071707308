package ftl

import (
	"testing"
	"testing/quick"

	"rmssd/internal/flash"
)

func testGeo() flash.Geometry {
	return flash.Geometry{
		Channels:       4,
		DiesPerChannel: 4,
		PlanesPerDie:   2,
		BlocksPerPlane: 8,
		PagesPerBlock:  16,
		PageSize:       4096,
	}
}

func TestTranslateStripesChannelsFirst(t *testing.T) {
	f := New(testGeo())
	for lpn := int64(0); lpn < 8; lpn++ {
		p := f.Translate(lpn)
		if p.Channel != int(lpn)%4 {
			t.Fatalf("LPN %d -> channel %d, want %d", lpn, p.Channel, lpn%4)
		}
	}
	// After one full sweep of channels, the die advances.
	if p := f.Translate(4); p.Die != 1 {
		t.Fatalf("LPN 4 -> die %d, want 1", p.Die)
	}
}

func TestTranslateInverseRoundTrip(t *testing.T) {
	f := New(testGeo())
	total := f.TotalPages()
	prop := func(raw uint32) bool {
		lpn := int64(raw) % total
		return f.Inverse(f.Translate(lpn)) == lpn
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTranslateBijectiveExhaustive(t *testing.T) {
	f := New(testGeo())
	seen := make(map[flash.PPA]bool)
	for lpn := int64(0); lpn < f.TotalPages(); lpn++ {
		p := f.Translate(lpn)
		if !f.Geometry().Contains(p) {
			t.Fatalf("LPN %d -> out-of-range PPA %+v", lpn, p)
		}
		if seen[p] {
			t.Fatalf("LPN %d maps to already-used PPA %+v", lpn, p)
		}
		seen[p] = true
	}
	if int64(len(seen)) != f.TotalPages() {
		t.Fatalf("mapping covered %d of %d pages", len(seen), f.TotalPages())
	}
}

// Translate divides in 32 bits: every page of the default geometry must
// still round-trip, up to the last one.
func TestTranslateDefaultGeometryRoundTrip(t *testing.T) {
	f := New(flash.DefaultGeometry())
	for lpn := int64(0); lpn < f.TotalPages(); lpn++ {
		if back := f.Inverse(f.Translate(lpn)); back != lpn {
			t.Fatalf("Inverse(Translate(%d)) = %d", lpn, back)
		}
	}
}

func TestNewRejectsMoreThan32BitPages(t *testing.T) {
	g := testGeo()
	g.BlocksPerPlane = 1 << 26 // 4*4*2*16 pages a block row: 1<<35 pages
	if g.Validate() == nil {
		t.Fatal("Validate accepted a geometry of more than 1<<32 pages")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a geometry of more than 1<<32 pages")
		}
	}()
	New(g)
}

func TestTranslateOutOfRangePanics(t *testing.T) {
	f := New(testGeo())
	for _, lpn := range []int64{-1, f.TotalPages()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Translate(%d) did not panic", lpn)
				}
			}()
			f.Translate(lpn)
		}()
	}
}

func TestLBAPageConversions(t *testing.T) {
	f := New(testGeo())
	if f.SectorsPerPage() != 8 {
		t.Fatalf("SectorsPerPage = %d, want 8", f.SectorsPerPage())
	}
	lpn, col := f.LBAToPage(0)
	if lpn != 0 || col != 0 {
		t.Fatalf("LBAToPage(0) = (%d,%d)", lpn, col)
	}
	lpn, col = f.LBAToPage(9) // second page, second sector
	if lpn != 1 || col != 512 {
		t.Fatalf("LBAToPage(9) = (%d,%d), want (1,512)", lpn, col)
	}
	if f.PageToLBA(3) != 24 {
		t.Fatalf("PageToLBA(3) = %d, want 24", f.PageToLBA(3))
	}
}

func TestLBAToPageRoundTrip(t *testing.T) {
	f := New(testGeo())
	prop := func(raw uint16) bool {
		lba := int64(raw)
		lpn, col := f.LBAToPage(lba)
		if col%SectorSize != 0 || col < 0 || col >= f.Geometry().PageSize {
			return false
		}
		return f.PageToLBA(lpn)+int64(col/SectorSize) == lba
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeLBAPanics(t *testing.T) {
	f := New(testGeo())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.LBAToPage(-1)
}
