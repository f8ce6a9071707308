package engine

import (
	"errors"
	"testing"
	"testing/quick"

	"rmssd/internal/embedding"
	"rmssd/internal/evcache"
	"rmssd/internal/flash"
	"rmssd/internal/hostio"
	"rmssd/internal/model"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/ssd"
	"rmssd/internal/tensor"
)

func testGeo() flash.Geometry {
	return flash.Geometry{
		Channels:       4,
		DiesPerChannel: 4,
		PlanesPerDie:   2,
		BlocksPerPlane: 64,
		PagesPerBlock:  16,
		PageSize:       4096,
	}
}

func smallRMC1() model.Config {
	c := model.RMC1()
	c.RowsPerTable = 2048
	return c
}

func setupLookup(t testing.TB, cfg model.Config) (*model.Model, *embedding.Store, *LookupEngine, *ssd.Device) {
	t.Helper()
	dev := ssd.MustNew(testGeo())
	fs := hostio.NewFS(dev, 64<<10)
	m := model.MustBuild(cfg)
	st, err := embedding.NewStore(m, fs)
	if err != nil {
		t.Fatal(err)
	}
	return m, st, NewLookupEngine(st, dev), dev
}

func TestTranslatorMatchesStoreAddresses(t *testing.T) {
	_, st, eng, _ := setupLookup(t, smallRMC1())
	tr := eng.Translator()
	if tr.Tables() != 8 {
		t.Fatalf("tables = %d", tr.Tables())
	}
	prop := func(tbl uint8, row uint16) bool {
		table := int(tbl) % 8
		r := int64(row) % 2048
		addr, err := tr.Lookup(table, r)
		return err == nil && addr == st.VectorAddr(table, r)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTranslatorErrorsOutOfRange(t *testing.T) {
	_, _, eng, _ := setupLookup(t, smallRMC1())
	for _, c := range []struct {
		table int
		row   int64
	}{{99, 0}, {-1, 0}, {0, -1}, {0, 1 << 40}} {
		if _, err := eng.Translator().Lookup(c.table, c.row); !errors.Is(err, ErrRowOutOfRange) {
			t.Fatalf("Lookup(%d,%d) err = %v, want ErrRowOutOfRange", c.table, c.row, err)
		}
	}
	if !eng.Translator().Covers(0, 17) {
		t.Fatal("Covers(0,17) should hold")
	}
	if eng.Translator().Covers(0, 1<<40) || eng.Translator().Covers(8, 0) {
		t.Fatal("Covers must reject out-of-range coordinates")
	}
}

// TestOutOfRangeRowsMissTheCache: the planner probes the EV cache before
// the translator validates a row, so a row no table holds must miss the
// cache, even where a careless key packing would alias it to a resident
// vector (row 5 + 1<<48 of table 0 onto row 5 of table 0 or 1), and fail
// the batch with ErrRowOutOfRange, leaving the cache as it was.
func TestOutOfRangeRowsMissTheCache(t *testing.T) {
	cfg := smallRMC1()
	_, _, eng, _ := setupLookup(t, cfg)
	c := evcache.New(int64(cfg.Tables)*cfg.RowsPerTable*int64(cfg.EVSize()), cfg.EVSize())
	eng.SetEVCache(c)
	eng.SetDedup(true)
	inTable0 := func(rows ...int64) [][][]int64 {
		sparse := make([][]int64, cfg.Tables)
		sparse[0] = rows
		return [][][]int64{sparse}
	}
	warm := make([][]int64, cfg.Tables)
	for tbl := range warm {
		warm[tbl] = []int64{0, 5, cfg.RowsPerTable - 1}
	}
	if _, _, err := eng.PoolBatch(0, [][][]int64{warm}, true); err != nil {
		t.Fatal(err)
	}
	hits, n := c.Stats().Hits, c.Len()
	for _, row := range []int64{-1, cfg.RowsPerTable, 5 + 1<<48} {
		if _, _, err := eng.PoolBatch(0, inTable0(row), true); !errors.Is(err, ErrRowOutOfRange) {
			t.Errorf("row %d: err = %v, want ErrRowOutOfRange", row, err)
		}
		if c.Stats().Hits != hits || c.Len() != n {
			t.Errorf("row %d: cache hits %d, %d resident; want %d and %d", row, c.Stats().Hits, c.Len(), hits, n)
		}
	}
	if _, _, err := eng.PoolBatch(0, inTable0(5), true); err != nil || c.Stats().Hits != hits+1 {
		t.Fatalf("resident row 5: err %v, %d hits, want a hit", err, c.Stats().Hits-hits)
	}
}

func TestPoolMatchesReference(t *testing.T) {
	m, _, eng, _ := setupLookup(t, smallRMC1())
	sparse := make([][]int64, 8)
	for tbl := range sparse {
		for i := 0; i < 80; i++ {
			sparse[tbl] = append(sparse[tbl], int64((tbl*997+i*13)%2048))
		}
	}
	pooled, done, err := eng.PoolBatch(0, [][][]int64{sparse}, true)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("pooling must take time")
	}
	for tbl := range sparse {
		want := m.PoolReference(tbl, sparse[tbl])
		if d := tensor.MaxAbsDiff(pooled[0][tbl], want); d > 1e-4 {
			t.Fatalf("table %d pooled diff %v", tbl, d)
		}
	}
}

func TestPoolTimingAgreesWithPool(t *testing.T) {
	cfg := smallRMC1()
	_, _, engA, _ := setupLookup(t, cfg)
	_, _, engB, _ := setupLookup(t, cfg)
	sparse := make([][]int64, 8)
	for tbl := range sparse {
		for i := 0; i < 20; i++ {
			sparse[tbl] = append(sparse[tbl], int64((tbl+i*31)%2048))
		}
	}
	_, doneA, errA := engA.PoolBatch(0, [][][]int64{sparse}, true)
	_, doneB, errB := engB.PoolBatch(0, [][][]int64{sparse}, false)
	if errA != nil || errB != nil {
		t.Fatalf("pool errs: %v, %v", errA, errB)
	}
	if doneA != doneB {
		t.Fatalf("data and timing paths diverge: %v vs %v", doneA, doneB)
	}
}

func TestPoolThroughputNearAnalyticBound(t *testing.T) {
	cfg := smallRMC1()
	m, _, eng, _ := setupLookup(t, cfg)
	gen := tensor.NewRNG(7)
	sparse := make([][]int64, 8)
	for tbl := range sparse {
		for i := 0; i < 80; i++ {
			sparse[tbl] = append(sparse[tbl], int64(gen.Intn(2048)))
		}
	}
	_, done, err := eng.PoolBatch(0, [][][]int64{sparse}, false)
	if err != nil {
		t.Fatal(err)
	}
	analytic := TembEstimate(m.Cfg, 1, 4, 4)
	ratio := float64(done) / float64(analytic)
	// The simulated completion should be within 2x of the analytic
	// bandwidth bound (scheduling skew and sum drain add a little).
	if ratio < 0.8 || ratio > 2.0 {
		t.Fatalf("simulated %v vs analytic %v (ratio %.2f)", done, analytic, ratio)
	}
}

func TestPoolStatsAndTraffic(t *testing.T) {
	_, _, eng, dev := setupLookup(t, smallRMC1())
	sparse := make([][]int64, 8)
	for tbl := range sparse {
		sparse[tbl] = []int64{1, 2, 3}
	}
	if _, _, err := eng.PoolBatch(0, [][][]int64{sparse}, false); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Lookups != 24 {
		t.Fatalf("lookups = %d, want 24", eng.Stats().Lookups)
	}
	if eng.Stats().BytesPooled != 24*128 {
		t.Fatalf("bytes = %d", eng.Stats().BytesPooled)
	}
	fs := dev.Array().Stats()
	if fs.VectorReads != 24 || fs.PageReads != 0 {
		t.Fatalf("flash stats = %+v: lookup engine must use vector reads only", fs)
	}
	// Traffic over the buses is vector-granular: no read amplification.
	if fs.BytesTransferred != 24*128 {
		t.Fatalf("bus traffic = %d, want %d", fs.BytesTransferred, 24*128)
	}
}

func TestPoolErrorsOnWrongTableCount(t *testing.T) {
	_, _, eng, _ := setupLookup(t, smallRMC1())
	if _, _, err := eng.PoolBatch(0, [][][]int64{make([][]int64, 3)}, true); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("PoolBatch err = %v, want ErrShapeMismatch", err)
	}
}

func TestVectorReadBandwidth(t *testing.T) {
	// dim-32 vectors (128 B): flush-limited at 700 cycles/vector/channel
	// with 4 dies -> 4 channels / 3.5us = ~1.14M vectors/s.
	bev := VectorReadBandwidth(128, 4, 4).UnitsPerSecond(128)
	if bev < 1.0e6 || bev > 1.3e6 {
		t.Fatalf("bEV(128B) = %v, want ~1.14e6", bev)
	}
	// dim-64 (256 B) is still flush-limited with 4 dies (75 < 700).
	if b := VectorReadBandwidth(256, 4, 4).UnitsPerSecond(256); b != bev {
		t.Fatalf("bEV(256B) = %v, want %v (flush-limited)", b, bev)
	}
	// With 64 dies per channel the bus becomes the limit and larger
	// vectors are slower (in vectors/second; the byte rate is bus-bound
	// either way).
	b128 := VectorReadBandwidth(128, 4, 64).UnitsPerSecond(128)
	b256 := VectorReadBandwidth(256, 4, 64).UnitsPerSecond(256)
	if b256 >= b128 {
		t.Fatalf("bus-limited: bEV(256)=%v should be < bEV(128)=%v", b256, b128)
	}
}

func TestTembEstimateScalesWithBatchAndWork(t *testing.T) {
	cfg := model.RMC1()
	t1 := TembEstimate(cfg, 1, 4, 4)
	t2 := TembEstimate(cfg, 2, 4, 4)
	if t2 != 2*t1 {
		t.Fatalf("Temb not linear in batch: %v vs %v", t1, t2)
	}
	more := TembEstimate(cfg, 1, 8, 4)
	if more >= t1 {
		t.Fatal("more channels must reduce Temb")
	}
}

func TestEVSumKeepsUpWithFlash(t *testing.T) {
	// The EV Sum unit must never be the bottleneck: its per-vector
	// occupancy (ceil(dim/lanes) cycles) is far below the per-vector
	// flash service time.
	for _, cfg := range []model.Config{model.RMC1(), model.RMC2()} {
		sumCycles := sim.Cycles((cfg.EVDim + params.EVSumLanes - 1) / params.EVSumLanes)
		flashCycles := params.FlushCycles / params.DiesPerChannel
		if sumCycles*4 > flashCycles {
			t.Fatalf("%s: EV Sum %d cycles vs flash %d: sum unit too slow",
				cfg.Name, sumCycles, flashCycles)
		}
	}
}

func TestPoolDeterministic(t *testing.T) {
	cfg := smallRMC1()
	_, _, engA, _ := setupLookup(t, cfg)
	_, _, engB, _ := setupLookup(t, cfg)
	sparse := [][]int64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}}
	pa, da, errA := engA.PoolBatch(0, [][][]int64{sparse}, true)
	pb, db, errB := engB.PoolBatch(0, [][][]int64{sparse}, true)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if da != db {
		t.Fatal("timing not deterministic")
	}
	for i := range pa[0] {
		if tensor.MaxAbsDiff(pa[0][i], pb[0][i]) != 0 {
			t.Fatal("values not deterministic")
		}
	}
}
