package embedding

import (
	"bytes"
	"testing"
	"testing/quick"

	"rmssd/internal/flash"
	"rmssd/internal/hostio"
	"rmssd/internal/model"
	"rmssd/internal/ssd"
	"rmssd/internal/tensor"
)

func testSetup(t *testing.T, cfg model.Config) (*model.Model, *Store, *hostio.FS) {
	t.Helper()
	geo := flash.Geometry{
		Channels:       4,
		DiesPerChannel: 4,
		PlanesPerDie:   2,
		BlocksPerPlane: 64,
		PagesPerBlock:  16,
		PageSize:       4096,
	}
	fs := hostio.NewFS(ssd.MustNew(geo), 64<<10)
	m := model.MustBuild(cfg)
	st, err := NewStore(m, fs)
	if err != nil {
		t.Fatal(err)
	}
	return m, st, fs
}

func smallRMC1() model.Config {
	c := model.RMC1()
	c.RowsPerTable = 2048
	return c
}

func TestVectorsPerPage(t *testing.T) {
	_, st, _ := testSetup(t, smallRMC1())
	if st.VectorsPerPage() != 32 { // 4096 / 128
		t.Fatalf("VPP = %d, want 32", st.VectorsPerPage())
	}
}

func TestVectorAddrWithinFileExtents(t *testing.T) {
	_, st, _ := testSetup(t, smallRMC1())
	prop := func(tbl uint8, row uint16) bool {
		table := int(tbl) % 8
		r := int64(row) % 2048
		addr := st.VectorAddr(table, r)
		// The vector must lie fully inside one page.
		ps := int64(4096)
		return addr/ps == (addr+127)/ps && addr >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVectorAddrDistinct(t *testing.T) {
	_, st, _ := testSetup(t, smallRMC1())
	seen := map[int64]bool{}
	for table := 0; table < 8; table++ {
		for row := int64(0); row < 100; row++ {
			a := st.VectorAddr(table, row)
			if seen[a] {
				t.Fatalf("duplicate address %d", a)
			}
			seen[a] = true
		}
	}
}

func TestVectorAddrValidation(t *testing.T) {
	_, st, _ := testSetup(t, smallRMC1())
	for _, c := range []struct {
		table int
		row   int64
	}{{-1, 0}, {8, 0}, {0, -1}, {0, 2048}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("VectorAddr(%d,%d) did not panic", c.table, c.row)
				}
			}()
			st.VectorAddr(c.table, c.row)
		}()
	}
}

// The core fidelity test: reading vector bytes through the device (served
// by the filler) must match the model's canonical encoding.
func TestFillerMatchesModel(t *testing.T) {
	m, st, fs := testSetup(t, smallRMC1())
	dev := fs.Device()
	for _, tc := range []struct {
		table int
		row   int64
	}{{0, 0}, {0, 31}, {0, 32}, {3, 1000}, {7, 2047}} {
		addr := st.VectorAddr(tc.table, tc.row)
		got := dev.PeekRange(addr, m.Cfg.EVSize())
		want := m.EVBytes(tc.table, tc.row)
		if !bytes.Equal(got, want) {
			t.Fatalf("table %d row %d: filler bytes differ from model encoding", tc.table, tc.row)
		}
	}
}

// Materialising a table (physically writing its bytes) must be
// indistinguishable from the filler-synthesised contents.
func TestMaterializedEqualsSynthesised(t *testing.T) {
	cfg := smallRMC1()
	cfg.RowsPerTable = 256
	m, st, fs := testSetup(t, cfg)
	dev := fs.Device()

	// Capture synthesised images first.
	f := st.File(2)
	ps := int64(4096)
	var synth [][]byte
	for off := int64(0); off < f.Size(); off += ps {
		page := append([]byte(nil), dev.PeekRange(f.AddrOf(off), 4096)...)
		synth = append(synth, page)
	}
	st.MaterializeTable(2)
	for i, off := 0, int64(0); off < f.Size(); i, off = i+1, off+ps {
		got := dev.PeekRange(f.AddrOf(off), 4096)
		if !bytes.Equal(got, synth[i]) {
			t.Fatalf("page %d differs after materialisation", i)
		}
	}
	_ = m
}

func TestFillerVectorReadThroughFlashPath(t *testing.T) {
	m, st, fs := testSetup(t, smallRMC1())
	dev := fs.Device()
	addr := st.VectorAddr(5, 123)
	done, err := dev.ReadVectorAt(0, addr, m.Cfg.EVSize())
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("vector read must consume time")
	}
	got := model.DecodeEV(dev.PeekRange(addr, m.Cfg.EVSize()))
	want := m.EmbeddingVector(5, 123)
	if tensor.MaxAbsDiff(got, want) != 0 {
		t.Fatal("flash-path vector differs from model vector")
	}
}

func TestOddDimensionPadding(t *testing.T) {
	// EVDim 24 -> 96-byte vectors, 42 per page with 64 bytes of tail
	// padding; layout must still keep vectors within pages.
	cfg := smallRMC1()
	cfg.EVDim = 24
	cfg.BottomMLP = []int{64, 24}
	cfg.RowsPerTable = 300
	m, st, fs := testSetup(t, cfg)
	if st.VectorsPerPage() != 42 {
		t.Fatalf("VPP = %d, want 42", st.VectorsPerPage())
	}
	dev := fs.Device()
	for _, row := range []int64{0, 41, 42, 299} {
		addr := st.VectorAddr(0, row)
		if addr/4096 != (addr+int64(m.Cfg.EVSize())-1)/4096 {
			t.Fatalf("row %d crosses page boundary", row)
		}
		got := dev.PeekRange(addr, m.Cfg.EVSize())
		if !bytes.Equal(got, m.EVBytes(0, row)) {
			t.Fatalf("row %d content mismatch", row)
		}
	}
}

func TestStoreRejectsHugeVectors(t *testing.T) {
	cfg := smallRMC1()
	cfg.EVDim = 2048 // 8 KiB > 4 KiB page
	cfg.BottomMLP = []int{64, 2048}
	geo := flash.Geometry{Channels: 1, DiesPerChannel: 1, PlanesPerDie: 1, BlocksPerPlane: 8, PagesPerBlock: 16, PageSize: 4096}
	fs := hostio.NewFS(ssd.MustNew(geo), 64<<10)
	if _, err := NewStore(model.MustBuild(cfg), fs); err == nil {
		t.Fatal("expected error for vector larger than a page")
	}
}

func TestStoreDeviceFull(t *testing.T) {
	cfg := smallRMC1()
	cfg.RowsPerTable = 1 << 20 // far beyond the tiny test device
	geo := flash.Geometry{Channels: 1, DiesPerChannel: 1, PlanesPerDie: 1, BlocksPerPlane: 2, PagesPerBlock: 4, PageSize: 4096}
	fs := hostio.NewFS(ssd.MustNew(geo), 64<<10)
	if _, err := NewStore(model.MustBuild(cfg), fs); err == nil {
		t.Fatal("expected device-full error")
	}
}

func TestDim64Layout(t *testing.T) {
	cfg := model.RMC2()
	cfg.RowsPerTable = 512
	m, st, fs := testSetup(t, cfg)
	if st.VectorsPerPage() != 16 { // 4096/256
		t.Fatalf("VPP = %d, want 16", st.VectorsPerPage())
	}
	dev := fs.Device()
	addr := st.VectorAddr(31, 511)
	if !bytes.Equal(dev.PeekRange(addr, 256), m.EVBytes(31, 511)) {
		t.Fatal("dim-64 content mismatch")
	}
}

func TestPoolViaDeviceMatchesReference(t *testing.T) {
	m, st, fs := testSetup(t, smallRMC1())
	dev := fs.Device()
	rows := []int64{5, 99, 1024, 5, 2047}
	sum := make(tensor.Vector, m.Cfg.EVDim)
	for _, r := range rows {
		addr := st.VectorAddr(4, r)
		if _, err := dev.ReadVectorAt(0, addr, m.Cfg.EVSize()); err != nil {
			t.Fatal(err)
		}
		tensor.AccumulateInto(sum, model.DecodeEV(dev.PeekRange(addr, m.Cfg.EVSize())))
	}
	want := m.PoolReference(4, rows)
	if tensor.MaxAbsDiff(sum, want) > 1e-5 {
		t.Fatal("device-path pooling differs from reference")
	}
}
