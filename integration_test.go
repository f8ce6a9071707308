package rmssd_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"rmssd"
	"rmssd/internal/baseline"
	"rmssd/internal/engine"
	"rmssd/internal/model"
	"rmssd/internal/sim"
	"rmssd/internal/trace"
)

// integration_test.go runs the whole stack together: every deployment of
// every model over shared inputs, checking functional equivalence, timing
// sanity and the paper's cross-system orderings at once.

func integCfg(name string) model.Config {
	cfg, err := model.ConfigByName(name)
	if err != nil {
		panic(fmt.Sprintf("rmssd_test: %v", err))
	}
	cfg.RowsPerTable = cfg.RowsForBudget(48 << 20)
	return cfg
}

func integTrace(cfg model.Config, seed uint64) *trace.Generator {
	return trace.MustNew(trace.Config{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: seed,
	})
}

// Every model, every system, the same inputs: every baseline predicts bit
// for bit what the reference model does, at batch 1 and 4, and the device
// agrees with it.
func TestIntegrationAllModelsAllSystems(t *testing.T) {
	for _, name := range []string{"RMC1", "RMC2", "RMC3", "NCF", "WnD"} {
		cfg := integCfg(name)
		gen := integTrace(cfg, 101)
		denses := make([]rmssd.Vector, 4)
		for i := range denses {
			denses[i] = gen.DenseInput(i, cfg.DenseDim)
		}
		sparses := gen.Batch(len(denses))

		env := baseline.MustNewEnv(cfg, rmssd.DefaultGeometry())
		for _, b := range []int{1, 4} {
			systems := []baseline.System{
				baseline.NewDRAM(env.M),
				baseline.NewSSDS(baseline.MustNewEnv(cfg, rmssd.DefaultGeometry())),
				baseline.NewSSDM(baseline.MustNewEnv(cfg, rmssd.DefaultGeometry())),
				baseline.NewEmbMMIO(baseline.MustNewEnv(cfg, rmssd.DefaultGeometry())),
				baseline.NewEmbPageSum(baseline.MustNewEnv(cfg, rmssd.DefaultGeometry())),
				baseline.NewEmbVectorSum(baseline.MustNewEnv(cfg, rmssd.DefaultGeometry())),
				baseline.NewRecSSD(baseline.MustNewEnv(cfg, rmssd.DefaultGeometry())),
			}
			for _, sys := range systems {
				outs, done, _ := sys.InferBatch(0, denses[:b], sparses[:b])
				for i, got := range outs {
					if want := env.M.Infer(denses[i], sparses[i]); math.Float32bits(got) != math.Float32bits(want) {
						t.Errorf("%s/%s batch %d inference %d: %v vs reference %v", name, sys.Name(), b, i, got, want)
					}
				}
				if len(outs) != b || done <= 0 {
					t.Errorf("%s/%s batch %d: %d predictions, completion %v", name, sys.Name(), b, len(outs), done)
				}
			}
		}

		dense, sparse := denses[0], sparses[0]
		want := env.M.Infer(dense, sparse)

		// The device itself, both designs.
		for _, design := range []rmssd.Design{rmssd.DesignSearched, rmssd.DesignNaive} {
			dev, err := rmssd.NewDevice(cfg, rmssd.DeviceOptions{Design: design})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, design, err)
			}
			outs, _, _, err := dev.InferBatch(0, []rmssd.Vector{dense}, [][][]int64{sparse})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(float64(outs[0]-want)) > 1e-4 {
				t.Errorf("%s RM-SSD(%v): %v vs %v", name, design, outs[0], want)
			}
		}
	}
}

// The paper's global performance ordering must hold end to end on the
// default trace for an embedding-dominated model.
func TestIntegrationPerformanceOrdering(t *testing.T) {
	cfg := integCfg("RMC1")
	const n = 25

	measure := func(sys baseline.System, seed uint64) time.Duration {
		gen := integTrace(cfg, seed)
		var now sim.Time
		for i := 0; i < n; i++ {
			now, _ = sys.InferBatchTiming(now, gen.Batch(1))
		}
		return time.Duration(now) / n
	}
	ssds := measure(baseline.NewSSDS(baseline.MustNewEnv(cfg, rmssd.DefaultGeometry())), 5)
	mmio := measure(baseline.NewEmbMMIO(baseline.MustNewEnv(cfg, rmssd.DefaultGeometry())), 5)
	pageSum := measure(baseline.NewEmbPageSum(baseline.MustNewEnv(cfg, rmssd.DefaultGeometry())), 5)
	vecSum := measure(baseline.NewEmbVectorSum(baseline.MustNewEnv(cfg, rmssd.DefaultGeometry())), 5)

	dev := rmssd.MustNewDevice(cfg, rmssd.DeviceOptions{})
	rm := time.Duration(float64(time.Second) / dev.SteadyStateQPS(1))

	if !(ssds > mmio && mmio > pageSum && pageSum > vecSum && vecSum > rm) {
		t.Fatalf("ordering violated: SSD-S=%v > EMB-MMIO=%v > EMB-PageSum=%v > EMB-VectorSum=%v > RM-SSD=%v",
			ssds, mmio, pageSum, vecSum, rm)
	}
	if ratio := float64(ssds) / float64(rm); ratio < 10 {
		t.Fatalf("RM-SSD speedup over SSD-S = %.1fx, want >= 10x", ratio)
	}
}

// Determinism across the whole stack: same seeds, same simulated clocks.
func TestIntegrationDeterminismAcrossSystems(t *testing.T) {
	cfg := integCfg("RMC2")
	run := func() (sim.Time, float32) {
		gen := integTrace(cfg, 77)
		env := baseline.MustNewEnv(cfg, rmssd.DefaultGeometry())
		rec := baseline.NewRecSSD(env)
		var now sim.Time
		var out float32
		for i := 0; i < 5; i++ {
			outs, done, _ := rec.InferBatch(now, []rmssd.Vector{gen.DenseInput(i, cfg.DenseDim)}, gen.Batch(1))
			now = done
			out = outs[0]
		}
		return now, out
	}
	t1, o1 := run()
	t2, o2 := run()
	if t1 != t2 || o1 != o2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", t1, o1, t2, o2)
	}
}

// The kernel-search contract holds for every model on both FPGA parts
// where a mapping exists.
func TestIntegrationKernelSearchContract(t *testing.T) {
	for _, name := range []string{"RMC1", "RMC2", "RMC3", "NCF", "WnD"} {
		cfg := integCfg(name)
		m := model.MustBuild(cfg)
		e, err := engine.NewMLPEngine(m, engine.DesignSearched, rmssd.XCVU9P)
		if err != nil {
			t.Errorf("%s: search failed on XCVU9P: %v", name, err)
			continue
		}
		if !e.FitsPart() {
			t.Errorf("%s: searched design does not fit XCVU9P (%s)", name, e.Resources())
		}
	}
}

// Mixed workload: conventional block I/O sharing the device with inference
// (Fig. 5's two request paths into one FTL). The paths contend only through
// die and channel reservations, so both make progress and inference slows
// down only moderately.
func TestIntegrationBlockIOInterference(t *testing.T) {
	cfg := integCfg("RMC1")
	gen := integTrace(cfg, 31)
	sparse := gen.Inference()

	alone := rmssd.MustNewDevice(cfg, rmssd.DeviceOptions{})
	aloneDone, _, err := alone.InferBatchTiming(0, [][][]int64{sparse})
	if err != nil {
		t.Fatal(err)
	}

	shared := rmssd.MustNewDevice(cfg, rmssd.DeviceOptions{})
	// Fire a burst of block reads at t=0 on the same device.
	for lpn := int64(0); lpn < 64; lpn++ {
		shared.Device().ReadPage(0, lpn)
	}
	sharedDone, _, err := shared.InferBatchTiming(0, [][][]int64{sparse})
	if err != nil {
		t.Fatal(err)
	}

	if sharedDone <= aloneDone {
		t.Fatal("block I/O contention should slow inference down")
	}
	if float64(sharedDone) > 3*float64(aloneDone) {
		t.Fatalf("contention blew up: %v vs %v alone", sharedDone, aloneDone)
	}
}

// RecSSD's pre-warmed cache must reach the trace's hot-mass hit ratio.
func TestIntegrationRecSSDPreWarm(t *testing.T) {
	cfg := integCfg("RMC1")
	gen := integTrace(cfg, 19)
	env := baseline.MustNewEnv(cfg, rmssd.DefaultGeometry())
	rec := baseline.NewRecSSD(env)
	rec.PreWarmHot(gen.HotRow, gen.HotSetSize())
	var now sim.Time
	for i := 0; i < 30; i++ {
		now, _ = rec.InferBatchTiming(now, gen.Batch(1))
	}
	hr := rec.Cache().HitRatio()
	if hr < 0.55 || hr > 0.75 {
		t.Fatalf("pre-warmed hit ratio = %.2f, want ~0.65 (trace hot mass)", hr)
	}
}
