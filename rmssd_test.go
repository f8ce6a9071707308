package rmssd_test

import (
	"math"
	"testing"
	"time"

	"rmssd"
)

func tinyRMC1() rmssd.ModelConfig {
	cfg := rmssd.RMC1()
	cfg.RowsPerTable = cfg.RowsForBudget(32 << 20)
	return cfg
}

// The public API's headline path: build a device, run a batch, match the
// reference model bit for bit.
func TestPublicQuickstartPath(t *testing.T) {
	cfg := tinyRMC1()
	dev := rmssd.MustNewDevice(cfg, rmssd.DeviceOptions{})
	gen := rmssd.MustNewTrace(rmssd.TraceConfig{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 42,
	})
	const batch = 3
	denses := make([]rmssd.Vector, batch)
	for i := range denses {
		denses[i] = gen.DenseInput(i, cfg.DenseDim)
	}
	sparses := gen.Batch(batch)
	outs, done, bd, err := dev.InferBatch(0, denses, sparses)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 || bd.Emb <= 0 {
		t.Fatal("no simulated time")
	}
	for i, out := range outs {
		want := dev.Model().Infer(denses[i], sparses[i])
		if math.Abs(float64(out-want)) > 1e-5 {
			t.Fatalf("inference %d: %v vs reference %v", i, out, want)
		}
	}
}

func TestPublicDefaultDesignIsFullRMSSD(t *testing.T) {
	cfg := tinyRMC1()
	dev := rmssd.MustNewDevice(cfg, rmssd.DeviceOptions{})
	if dev.MLP().Design() != rmssd.DesignSearched {
		t.Fatalf("default design = %v, want searched", dev.MLP().Design())
	}
	naive, err := rmssd.NewNaiveDevice(cfg, rmssd.DeviceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if naive.MLP().Design() != rmssd.DesignNaive {
		t.Fatal("NewNaiveDevice did not select the naive design")
	}
}

func TestPublicBaselinesAgree(t *testing.T) {
	cfg := tinyRMC1()
	gen := rmssd.MustNewTrace(rmssd.TraceConfig{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 9,
	})
	dense := gen.DenseInput(0, cfg.DenseDim)
	sparse := gen.Inference()

	env, err := rmssd.NewEnv(cfg, rmssd.DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	m := env.M
	want := m.Infer(dense, sparse)
	systems := []rmssd.System{
		rmssd.NewDRAM(m),
		rmssd.NewSSDS(env),
	}
	for _, sys := range systems {
		got, _, _ := sys.InferBatch(0, []rmssd.Vector{dense}, [][][]int64{sparse})
		if math.Abs(float64(got[0]-want)) > 1e-4 {
			t.Fatalf("%s: %v vs %v", sys.Name(), got[0], want)
		}
	}
}

func TestPublicDeterminism(t *testing.T) {
	run := func() (float32, time.Duration) {
		cfg := tinyRMC1()
		dev := rmssd.MustNewDevice(cfg, rmssd.DeviceOptions{})
		gen := rmssd.MustNewTrace(rmssd.TraceConfig{
			Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 1,
		})
		outs, done, _, err := dev.InferBatch(0,
			[]rmssd.Vector{gen.DenseInput(0, cfg.DenseDim)}, gen.Batch(1))
		if err != nil {
			t.Fatal(err)
		}
		return outs[0], done
	}
	o1, d1 := run()
	o2, d2 := run()
	if o1 != o2 || d1 != d2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", o1, d1, o2, d2)
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	if len(rmssd.Experiments()) != 19 {
		t.Fatalf("experiment count = %d", len(rmssd.Experiments()))
	}
	e, err := rmssd.FindExperiment("table3")
	if err != nil {
		t.Fatal(err)
	}
	tabs := e.Run(rmssd.ExperimentOptions{Iterations: 2, TableBytes: 32 << 20})
	if len(tabs) == 0 || len(tabs[0].Rows) != 5 {
		t.Fatal("table3 should list 5 models")
	}
}

func TestPublicTraceAnalysis(t *testing.T) {
	stats := rmssd.AnalyzeTrace([]int64{1, 1, 2, 3}, 1)
	if stats.TotalLookups != 4 || stats.TotalIndices != 3 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestPublicModelZoo(t *testing.T) {
	if len(rmssd.AllModels()) != 5 {
		t.Fatal("expected 5 built-in models")
	}
	cfg, err := rmssd.ModelByName("NCF")
	if err != nil || cfg.Lookups != 1 {
		t.Fatalf("NCF lookup count = %d, err %v", cfg.Lookups, err)
	}
	if _, err := rmssd.BuildModel(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPublicPartBudgets(t *testing.T) {
	if rmssd.XCVU9P.Name != "XCVU9P" || rmssd.XC7A200T.Name != "XC7A200T" {
		t.Fatal("FPGA part budgets not exported correctly")
	}
}

func TestPublicSessionAPI(t *testing.T) {
	dev := rmssd.MustNewDevice(tinyRMC1(), rmssd.DeviceOptions{})
	var s *rmssd.Session = dev.NewSession("alice")
	if err := s.CreateTable(0); err != nil {
		t.Fatal(err)
	}
	fd, err := s.OpenTable(0)
	if err != nil || fd == 0 {
		t.Fatalf("open: %d %v", fd, err)
	}
}
