package baseline

import (
	"fmt"
	"math"
	"testing"
	"time"

	"rmssd/internal/flash"
	"rmssd/internal/model"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
	"rmssd/internal/trace"
)

func testGeo() flash.Geometry {
	return flash.Geometry{
		Channels:       4,
		DiesPerChannel: 3,
		PlanesPerDie:   2,
		BlocksPerPlane: 64,
		PagesPerBlock:  16,
		PageSize:       4096,
	}
}

func smallCfg(name string) model.Config {
	c, err := model.ConfigByName(name)
	if err != nil {
		panic(fmt.Sprintf("baseline: %v", err))
	}
	c.RowsPerTable = 2048
	return c
}

func allSystems(t *testing.T, cfg model.Config) []System {
	t.Helper()
	env := MustNewEnv(cfg, testGeo())
	return []System{
		NewDRAM(env.M),
		NewSSDS(env),
		NewSSDM(MustNewEnv(cfg, testGeo())),
		NewEmbMMIO(MustNewEnv(cfg, testGeo())),
		NewEmbPageSum(MustNewEnv(cfg, testGeo())),
		NewEmbVectorSum(MustNewEnv(cfg, testGeo())),
		NewRecSSD(MustNewEnv(cfg, testGeo())),
	}
}

func inputsFor(cfg model.Config, seed uint64) (tensor.Vector, [][]int64) {
	g := trace.MustNew(trace.Config{
		Tables:  cfg.Tables,
		Rows:    cfg.RowsPerTable,
		Lookups: cfg.Lookups,
		Seed:    seed,
	})
	return g.DenseInput(0, cfg.DenseDim), g.Inference()
}

// Every system must compute, at batch 1 and 4, bit for bit the CTR the
// reference model computes for each inference.
func TestAllSystemsFunctionallyEquivalent(t *testing.T) {
	for _, name := range []string{"RMC1", "RMC3"} {
		cfg := smallCfg(name)
		for _, b := range []int{1, 4} {
			g := batchGen(cfg, 11)
			sparses := g.Batch(b)
			denses := make([]tensor.Vector, b)
			for i := range denses {
				denses[i] = g.DenseInput(i, cfg.DenseDim)
			}
			for _, sys := range allSystems(t, cfg) {
				got, done, bd := sys.InferBatch(0, denses, sparses)
				if len(got) != b {
					t.Fatalf("%s/%s batch %d: %d predictions", name, sys.Name(), b, len(got))
				}
				for i := range got {
					if want := sys.Model().Infer(denses[i], sparses[i]); math.Float32bits(got[i]) != math.Float32bits(want) {
						t.Errorf("%s/%s batch %d inference %d: got %v, want %v", name, sys.Name(), b, i, got[i], want)
					}
				}
				if done <= 0 || bd.Total() <= 0 {
					t.Errorf("%s/%s batch %d: no time recorded", name, sys.Name(), b)
				}
			}
		}
	}
}

// Materialising values must not change timing: twin systems, one running
// InferBatch and the other InferBatchTiming over the same chained batches,
// finish every batch at the same instant with the same breakdown. Warmed,
// both twins first run the same timing pass, and RecSSD's twins are also
// pre-warmed with the trace's hot set, so the materialising twin meets cache
// entries that only timing runs and PreWarmHot made resident.
func TestMaterialisedMatchesTiming(t *testing.T) {
	for _, name := range []string{"RMC1", "RMC2", "RMC3", "NCF", "WnD"} {
		cfg := smallCfg(name)
		for _, b := range []int{1, 4} {
			for _, warm := range []bool{false, true} {
				matchTwins(t, cfg, b, warm)
			}
		}
	}
}

func matchTwins(t *testing.T, cfg model.Config, b int, warm bool) {
	t.Helper()
	values, timing := allSystems(t, cfg), allSystems(t, cfg)
	for si := range values {
		g := batchGen(cfg, 19)
		var nowV, nowT sim.Time
		if warm {
			if rec, ok := values[si].(*RecSSD); ok {
				rec.PreWarmHot(g.HotRow, g.HotSetSize())
				timing[si].(*RecSSD).PreWarmHot(g.HotRow, g.HotSetSize())
			}
			warmup := g.Batch(b)
			nowV, _ = values[si].InferBatchTiming(0, warmup)
			nowT, _ = timing[si].InferBatchTiming(0, warmup)
		}
		for it := 0; it < 6; it++ {
			sparses := g.Batch(b)
			denses := make([]tensor.Vector, b)
			for i := range denses {
				denses[i] = g.DenseInput(it*b+i, cfg.DenseDim)
			}
			_, doneV, bdV := values[si].InferBatch(nowV, denses, sparses)
			doneT, bdT := timing[si].InferBatchTiming(nowT, sparses)
			if doneV != doneT || bdV != bdT {
				t.Fatalf("%s/%s batch %d warm %v iteration %d: InferBatch %v %+v, InferBatchTiming %v %+v",
					cfg.Name, values[si].Name(), b, warm, it, doneV, bdV, doneT, bdT)
			}
			nowV, nowT = doneV, doneT
		}
	}
}

// The performance ordering of Fig. 11: SSD-S slowest, then EMB-MMIO, then
// EMB-PageSum, then EMB-VectorSum.
func TestEmbeddingPathOrdering(t *testing.T) {
	cfg := smallCfg("RMC1")
	g := trace.MustNew(trace.Config{Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 13})
	batch := g.Batch(30)

	measure := func(sys System) time.Duration {
		var now sim.Time
		for i := range batch {
			now, _ = sys.InferBatchTiming(now, batch[i:i+1])
		}
		return time.Duration(now)
	}
	ssds := measure(NewSSDS(MustNewEnv(cfg, testGeo())))
	mmio := measure(NewEmbMMIO(MustNewEnv(cfg, testGeo())))
	pageSum := measure(NewEmbPageSum(MustNewEnv(cfg, testGeo())))
	vecSum := measure(NewEmbVectorSum(MustNewEnv(cfg, testGeo())))
	dram := measure(NewDRAM(model.MustBuild(cfg)))

	if !(ssds > mmio && mmio > pageSum && pageSum > vecSum) {
		t.Fatalf("ordering violated: SSD-S=%v EMB-MMIO=%v EMB-PageSum=%v EMB-VectorSum=%v",
			ssds, mmio, pageSum, vecSum)
	}
	// Fig. 10(a): EMB-VectorSum ~16x faster than SSD-S on the SLS path.
	if float64(ssds)/float64(vecSum) < 4 {
		t.Fatalf("EMB-VectorSum speedup over SSD-S = %.1fx, want >= 4x", float64(ssds)/float64(vecSum))
	}
	_ = dram
}

func TestSSDMFasterThanSSDS(t *testing.T) {
	cfg := smallCfg("RMC1")
	g := trace.MustNew(trace.Config{Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 17})
	batch := g.Batch(50)
	run := func(s *NaiveSSD) time.Duration {
		s.Warm(batch[:10])
		var now sim.Time
		for i := range batch {
			now, _ = s.InferBatchTiming(now, batch[i:i+1])
		}
		return time.Duration(now)
	}
	ssds := run(NewSSDS(MustNewEnv(cfg, testGeo())))
	ssdm := run(NewSSDM(MustNewEnv(cfg, testGeo())))
	if ssdm > ssds {
		t.Fatalf("SSD-M (%v) slower than SSD-S (%v)", ssdm, ssds)
	}
}

func TestDRAMBreakdownShape(t *testing.T) {
	// DRAM inference must show zero SSD/FS time, and for RMC3 the MLP
	// share must dominate (the paper's model classification).
	m := model.MustBuild(smallCfg("RMC3"))
	d := NewDRAM(m)
	_, sparse := inputsFor(m.Cfg, 23)
	_, bdDone := d.InferBatchTiming(0, [][][]int64{sparse})
	if bdDone.EmbSSD != 0 || bdDone.EmbFS != 0 {
		t.Fatal("DRAM must not touch the SSD")
	}
	if bdDone.MLP() < bdDone.Emb() {
		t.Fatal("RMC3 DRAM inference should be MLP-dominated")
	}
}

func TestNaiveSSDReadAmplification(t *testing.T) {
	cfg := smallCfg("RMC1")
	env := MustNewEnv(cfg, testGeo())
	s := NewNaiveSSD(env, "SSD-0", 1<<40) // effectively no cache budget pressure, but cold
	_, sparse := inputsFor(cfg, 31)
	s.InferBatchTiming(0, [][][]int64{sparse})
	amp := s.Host().Stats().Amplification()
	// Cold cache: every distinct page faults once; with 80 lookups/table
	// over 2048 rows, amplification is large but below the 32x ceiling.
	if amp < 5 || amp > 32 {
		t.Fatalf("amplification = %v, want within (5, 32]", amp)
	}
}

func TestWarmDoesNotCountTraffic(t *testing.T) {
	cfg := smallCfg("RMC1")
	s := NewSSDS(MustNewEnv(cfg, testGeo()))
	g := trace.MustNew(trace.Config{Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 3})
	s.Warm(g.Batch(5))
	if s.Host().Stats() != (hostioStatsZero) {
		t.Fatalf("warm-up counted traffic: %+v", s.Host().Stats())
	}
}

func TestRecSSDCacheHitRatioTracksLocality(t *testing.T) {
	// Fig. 14's mechanism: the host cache hit ratio follows the trace's
	// hot mass once warm.
	cfg := smallCfg("RMC2")
	// 4x the hot set: enough for the hot vectors to survive the cold
	// insertion stream, small enough not to memorise the tiny test table.
	for _, hot := range []float64{0.30, 0.65} {
		s := NewRecSSDWithCache(MustNewEnv(cfg, testGeo()), int64(4*64*cfg.Tables*cfg.EVSize()))
		g := trace.MustNew(trace.Config{
			Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups,
			HotMass: hot, HotSetSize: 64, Seed: 5,
		})
		var now sim.Time
		for i := 0; i < 60; i++ {
			now, _ = s.InferBatchTiming(now, g.Batch(1))
			if i == 30 {
				s.Cache().ResetStats()
			}
		}
		got := s.Cache().HitRatio()
		// LRU churn from the cold stream costs a little; the warm hit
		// ratio must still track the hot mass.
		if got < hot-0.12 {
			t.Errorf("hot=%v: hit ratio %v too low", hot, got)
		}
	}
}

// TestRecSSDResidentEntriesHit: a timing pass leaves its rows resident in
// RecSSD's host cache. A materialised batch over the same rows serves each
// of them as a hit, with no device read: the same breakdown as a second
// timing pass, and bit for bit the predictions of the DRAM host. Every
// lookup of the second pass hits, so with no evictions the hit ratio over
// both passes is (2L-D)/2L for L lookups of D distinct keys.
func TestRecSSDResidentEntriesHit(t *testing.T) {
	cfg := smallCfg("RMC1")
	env := MustNewEnv(cfg, testGeo())
	rec, twin, dram := NewRecSSD(env), NewRecSSD(MustNewEnv(cfg, testGeo())), NewDRAM(env.M)
	g := batchGen(cfg, 17)
	sparses := g.Batch(4)
	denses := make([]tensor.Vector, len(sparses))
	for i := range denses {
		denses[i] = g.DenseInput(i, cfg.DenseDim)
	}
	lookups, distinct := 0, map[[2]int64]bool{}
	for _, sparse := range sparses {
		for tb, rows := range sparse {
			for _, row := range rows {
				lookups++
				distinct[[2]int64{int64(tb), row}] = true
			}
		}
	}
	now, _ := rec.InferBatchTiming(0, sparses)
	twinNow, _ := twin.InferBatchTiming(0, sparses)
	if rec.Cache().Len() != len(distinct) {
		t.Fatalf("timing pass left %d entries, want %d", rec.Cache().Len(), len(distinct))
	}
	got, done, bd := rec.InferBatch(now, denses, sparses)
	twinDone, twinBD := twin.InferBatchTiming(twinNow, sparses)
	want, _, _ := dram.InferBatch(0, denses, sparses)
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("inference %d: RecSSD predicts %v, DRAM %v", i, got[i], want[i])
		}
	}
	if done != twinDone || bd != twinBD {
		t.Fatalf("materialised pass %v %+v, timing pass %v %+v", done, bd, twinDone, twinBD)
	}
	if bd.EmbSSD != 0 {
		t.Fatalf("resident entries read the device for %v", bd.EmbSSD)
	}
	if got, want := rec.Cache().HitRatio(), float64(2*lookups-len(distinct))/float64(2*lookups); got != want {
		t.Fatalf("hit ratio %v, want %v", got, want)
	}
}

func TestRecSSDFasterWithMoreLocality(t *testing.T) {
	cfg := smallCfg("RMC2")
	// Size the host cache to the hot set: at test scale the default 1 GiB
	// cache would memorise the whole (tiny) table and mask locality.
	cacheBytes := int64(4 * 64 * cfg.Tables * cfg.EVSize())
	run := func(hot float64) time.Duration {
		s := NewRecSSDWithCache(MustNewEnv(cfg, testGeo()), cacheBytes)
		g := trace.MustNew(trace.Config{
			Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups,
			HotMass: hot, HotSetSize: 64, Seed: 5,
		})
		var now sim.Time
		var start sim.Time
		for i := 0; i < 40; i++ {
			done, _ := s.InferBatchTiming(now, g.Batch(1))
			if i == 20 {
				start = now // measure the warm half
			}
			now = done
		}
		return time.Duration(now - start)
	}
	hi := run(0.80)
	lo := run(0.30)
	if hi >= lo {
		t.Fatalf("high locality (%v) not faster than low (%v)", hi, lo)
	}
}

func TestEmbVectorSumBeatsRecSSD(t *testing.T) {
	// Section VI-C: vector-grained access beats RecSSD's page access even
	// before MLP offload enters the picture, on low-locality traces.
	cfg := smallCfg("RMC1")
	g1 := trace.MustNew(trace.Config{Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, HotMass: 0.3, HotSetSize: 64, Seed: 9})
	g2 := trace.MustNew(trace.Config{Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, HotMass: 0.3, HotSetSize: 64, Seed: 9})
	vec := NewEmbVectorSum(MustNewEnv(cfg, testGeo()))
	rec := NewRecSSDWithCache(MustNewEnv(cfg, testGeo()), int64(64*cfg.Tables*cfg.EVSize()))
	var nowV, nowR sim.Time
	for i := 0; i < 30; i++ {
		nowV, _ = vec.InferBatchTiming(nowV, g1.Batch(1))
		nowR, _ = rec.InferBatchTiming(nowR, g2.Batch(1))
	}
	if nowV >= nowR {
		t.Fatalf("EMB-VectorSum (%v) not faster than RecSSD (%v) at low locality", nowV, nowR)
	}
}

func TestSystemsPanicOnBadShape(t *testing.T) {
	cfg := smallCfg("RMC1")
	dense, sparse := inputsFor(cfg, 3)
	bad := []struct {
		what string
		run  func(System)
	}{
		{"wrong table count", func(sys System) { sys.InferBatchTiming(0, [][][]int64{make([][]int64, 1)}) }},
		{"empty batch", func(sys System) { sys.InferBatchTiming(0, nil) }},
		{"missing dense", func(sys System) { sys.InferBatch(0, []tensor.Vector{dense}, [][][]int64{sparse, sparse}) }},
	}
	for _, sys := range allSystems(t, cfg) {
		for _, c := range bad {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s: expected panic", sys.Name(), c.what)
					}
				}()
				c.run(sys)
			}()
		}
	}
}

func TestBreakdownAddAndTotals(t *testing.T) {
	a := Breakdown{EmbSSD: 1, EmbFS: 2, EmbOp: 3, Concat: 4, BotMLP: 5, TopMLP: 6, Other: 7}
	b := a.Add(a)
	if b.EmbSSD != 2 || b.Other != 14 {
		t.Fatalf("Add = %+v", b)
	}
	if a.Emb() != 6 || a.MLP() != 15 || a.Total() != 28 {
		t.Fatalf("totals: emb=%v mlp=%v total=%v", a.Emb(), a.MLP(), a.Total())
	}
}

// hostioStatsZero helps compare against a zero IOStats value.
var hostioStatsZero = struct {
	BytesRequested  int64
	BytesFromDevice int64
	DeviceReads     int64
}{}
