package baseline

import (
	"testing"
	"time"

	"rmssd/internal/model"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
	"rmssd/internal/trace"
)

func batchGen(cfg model.Config, seed uint64) *trace.Generator {
	return trace.MustNew(trace.Config{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: seed,
	})
}

// All batch systems implement the interface and produce sane breakdowns.
func TestBatchSystemsProduceBreakdowns(t *testing.T) {
	cfg := smallCfg("RMC1")
	systems := []System{
		NewDRAM(model.MustBuild(cfg)),
		NewSSDS(MustNewEnv(cfg, testGeo())),
		NewEmbMMIO(MustNewEnv(cfg, testGeo())),
		NewEmbPageSum(MustNewEnv(cfg, testGeo())),
		NewEmbVectorSum(MustNewEnv(cfg, testGeo())),
		NewRecSSD(MustNewEnv(cfg, testGeo())),
	}
	gen := batchGen(cfg, 3)
	batch := gen.Batch(4)
	for _, sys := range systems {
		done, bd := sys.InferBatchTiming(0, batch)
		if done <= 0 {
			t.Errorf("%s: no time", sys.Name())
		}
		if bd.Total() <= 0 {
			t.Errorf("%s: empty breakdown", sys.Name())
		}
		if bd.BotMLP < 0 || bd.TopMLP <= 0 {
			t.Errorf("%s: MLP stages missing: %+v", sys.Name(), bd)
		}
	}
}

// Batch amortisation: per-inference time at batch 16 must beat batch 1 for
// every host system (framework overhead amortises; I/O does not grow).
func TestBatchAmortisation(t *testing.T) {
	cfg := smallCfg("RMC1")
	mk := func() []System {
		return []System{
			NewDRAM(model.MustBuild(cfg)),
			NewEmbVectorSum(MustNewEnv(cfg, testGeo())),
			NewEmbPageSum(MustNewEnv(cfg, testGeo())),
		}
	}
	for i, sys1 := range mk() {
		gen1 := batchGen(cfg, 9)
		done1, _ := sys1.InferBatchTiming(0, gen1.Batch(1))
		sys16 := mk()[i]
		gen16 := batchGen(cfg, 9)
		done16, _ := sys16.InferBatchTiming(0, gen16.Batch(16))
		per1 := time.Duration(done1)
		per16 := time.Duration(done16) / 16
		if per16 >= per1 {
			t.Errorf("%s: batch-16 per-inference %v not below batch-1 %v", sys1.Name(), per16, per1)
		}
	}
}

// A RecSSD batch served entirely from its host cache still gathers and sums
// every cached vector on the host, just as DRAM does, so its emb-op costs
// at least DRAM's for the same batch.
func TestRecSSDCachedBatchEmbOpCoversDRAM(t *testing.T) {
	cfg := smallCfg("RMC1")
	env := MustNewEnv(cfg, testGeo())
	rec, dram := NewRecSSD(env), NewDRAM(env.M)
	batch := batchGen(cfg, 29).Batch(4)
	done, _ := rec.InferBatchTiming(0, batch)
	_, bd := rec.InferBatchTiming(done, batch)
	if bd.EmbSSD != 0 {
		t.Fatalf("repeated batch read the device for %v", bd.EmbSSD)
	}
	if _, want := dram.InferBatchTiming(0, batch); bd.EmbOp < want.EmbOp {
		t.Fatalf("cached RecSSD emb-op %v below DRAM's %v", bd.EmbOp, want.EmbOp)
	}
}

func TestSSDMName(t *testing.T) {
	s := NewSSDM(MustNewEnv(smallCfg("RMC1"), testGeo()))
	if s.Name() != "SSD-M" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestNaiveSSDBadDivisorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNaiveSSD(MustNewEnv(smallCfg("RMC1"), testGeo()), "bad", 0)
}

func TestDMAOutScalesWithBytes(t *testing.T) {
	small := DMAOut(64)
	big := DMAOut(1 << 20)
	if big <= small {
		t.Fatal("DMA time must grow with payload")
	}
}

// EMB-MMIO and EMB-PageSum functional paths (InferBatch with data).
func TestMMIOAndPageSumFunctional(t *testing.T) {
	cfg := smallCfg("RMC3")
	gen := batchGen(cfg, 21)
	dense := gen.DenseInput(0, cfg.DenseDim)
	sparse := gen.Inference()
	for _, sys := range []System{
		NewEmbMMIO(MustNewEnv(cfg, testGeo())),
		NewEmbPageSum(MustNewEnv(cfg, testGeo())),
	} {
		want := sys.Model().Infer(dense, sparse)
		got, _, bd := sys.InferBatch(0, []tensor.Vector{dense}, [][][]int64{sparse})
		if diff := got[0] - want; diff > 1e-4 || diff < -1e-4 {
			t.Errorf("%s: %v vs %v", sys.Name(), got[0], want)
		}
		if bd.EmbSSD <= 0 {
			t.Errorf("%s: missing device time", sys.Name())
		}
	}
}

// RecSSD: a second identical inference should be much faster (cache hits).
func TestRecSSDCachingAcrossInferences(t *testing.T) {
	cfg := smallCfg("RMC1")
	rec := NewRecSSD(MustNewEnv(cfg, testGeo()))
	gen := batchGen(cfg, 33)
	batch := gen.Batch(1)
	d1, _ := rec.InferBatchTiming(0, batch)
	d2, _ := rec.InferBatchTiming(d1, batch)
	if cold, warm := time.Duration(d1), time.Duration(d2-d1); warm*2 > cold {
		t.Fatalf("repeat inference (%v) should be far cheaper than cold (%v)", warm, cold)
	}
}

// PreWarmHot fills at most the cache capacity and makes hot lookups hit.
func TestPreWarmHotBounded(t *testing.T) {
	cfg := smallCfg("RMC2")
	rec := NewRecSSDWithCache(MustNewEnv(cfg, testGeo()), int64(100*cfg.EVSize()))
	gen := trace.MustNew(trace.Config{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups,
		HotSetSize: 64, Seed: 2,
	})
	rec.PreWarmHot(gen.HotRow, gen.HotSetSize())
	if rec.Cache().Len() > 100 {
		t.Fatalf("prewarm overfilled: %d entries", rec.Cache().Len())
	}
	// The hottest rank of table 0 must be resident.
	if !rec.Cache().Get(0, gen.HotRow(0, 0)) {
		t.Fatal("hottest entry not resident after prewarm")
	}
}

// The timing split of readEmbeddings must equal the completion time: the
// device and FS components fully explain the serial read path.
func TestNaiveSSDBreakdownConsistency(t *testing.T) {
	cfg := smallCfg("RMC1")
	s := NewSSDS(MustNewEnv(cfg, testGeo()))
	gen := batchGen(cfg, 41)
	var now sim.Time
	for i := 0; i < 5; i++ {
		start := now
		done, bd := s.InferBatchTiming(now, gen.Batch(1))
		now = done
		total := time.Duration(done - start)
		gap := total - bd.Total()
		if gap < 0 {
			gap = -gap
		}
		// The analytic split ignores sub-microsecond queueing skew at the
		// NVMe controller; it must still explain >99.9% of elapsed time.
		if gap > total/1000 {
			t.Fatalf("breakdown (%v) does not explain elapsed (%v), gap %v", bd.Total(), total, gap)
		}
	}
}
