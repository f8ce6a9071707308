// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per artifact), plus micro-benchmarks of the simulator's
// hot paths. The figures' numbers are *simulated* metrics reported via
// b.ReportMetric (sim-qps, sim-ms, amplification-x ...); wall-clock ns/op
// measures only the simulator itself.
//
// Run everything:
//
//	go test -bench=. -benchmem ./...
//
// The benchmarks use reduced table sizes and iteration counts so the full
// suite completes in minutes; cmd/rmbench runs the same experiments at
// paper scale.
package rmssd_test

import (
	"strconv"
	"strings"
	"testing"

	"rmssd"
	"rmssd/internal/baseline"
	"rmssd/internal/bench"
	"rmssd/internal/engine"
	"rmssd/internal/model"
	"rmssd/internal/sim"
	"rmssd/internal/trace"
)

// benchOpts returns reduced-scale options for benchmark runs.
func benchOpts() bench.Options {
	return bench.Options{
		Iterations:       10,
		WarmupIterations: 5,
		TableBytes:       128 << 20,
		Seed:             5,
	}
}

// cellFloat parses a numeric table cell.
func cellFloat(b *testing.B, s string) float64 {
	b.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x")
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell %q: %v", s, err)
	}
	return f
}

// runExperiment executes a registered experiment b.N times and returns the
// last result set.
func runExperiment(b *testing.B, name string) []*bench.Table {
	b.Helper()
	e, err := bench.Find(name)
	if err != nil {
		b.Fatal(err)
	}
	var tabs []*bench.Table
	for i := 0; i < b.N; i++ {
		tabs = e.Run(benchOpts())
	}
	return tabs
}

// --- one benchmark per paper table/figure ---

func BenchmarkTable2_SSDSettings(b *testing.B) { runExperiment(b, "table2") }

func BenchmarkTable3_ModelZoo(b *testing.B) {
	tabs := runExperiment(b, "table3")
	// Report RMC3's MLP size (paper: 12.23 MB).
	for _, row := range tabs[0].Rows {
		if row[0] == "RMC3" {
			mb := cellFloat(b, strings.TrimSuffix(row[6], "MB"))
			b.ReportMetric(mb, "rmc3-mlp-MB")
		}
	}
}

func BenchmarkFig2_NaiveSSDDeployment(b *testing.B) {
	tabs := runExperiment(b, "fig2")
	// RMC1 batch 1: SSD-S vs DRAM slowdown (paper: 29.2s vs 1.4s ~ 21x).
	row := tabs[0].Rows[0]
	slow := cellFloat(b, row[2]) / cellFloat(b, row[4])
	b.ReportMetric(slow, "ssds-vs-dram-x")
}

func BenchmarkFig3_ReadAmplification(b *testing.B) {
	tabs := runExperiment(b, "fig3")
	b.ReportMetric(cellFloat(b, tabs[0].Rows[0][3]), "rmc1-ssds-amp-x")
}

func BenchmarkFig4_AccessPattern(b *testing.B) {
	tabs := runExperiment(b, "fig4")
	b.ReportMetric(cellFloat(b, tabs[0].Rows[2][1]), "single-share-pct")
}

func BenchmarkFig10_SLSOperator(b *testing.B) {
	tabs := runExperiment(b, "fig10")
	// EMB-VectorSum speedup over SSD-S (paper: ~16x).
	b.ReportMetric(cellFloat(b, tabs[0].Rows[3][2]), "vectorsum-speedup-x")
}

func BenchmarkFig11_EndToEndEngines(b *testing.B) { runExperiment(b, "fig11") }

func BenchmarkFig12_ThroughputVsBatch(b *testing.B) {
	tabs := runExperiment(b, "fig12")
	// RMC1 batch 1: RM-SSD QPS and its ratio over SSD-S (paper: 20-100x).
	row := tabs[0].Rows[0]
	b.ReportMetric(cellFloat(b, row[5]), "rmc1-rmssd-qps")
	b.ReportMetric(cellFloat(b, row[5])/cellFloat(b, row[1]), "rmssd-vs-ssds-x")
}

func BenchmarkFig13_Latency(b *testing.B) {
	tabs := runExperiment(b, "fig13")
	row := tabs[0].Rows[0] // RMC1
	b.ReportMetric(1-cellFloat(b, row[4])/cellFloat(b, row[1]), "latency-cut-frac")
}

func BenchmarkTable4_IOTrafficReduction(b *testing.B) {
	tabs := runExperiment(b, "table4")
	b.ReportMetric(cellFloat(b, tabs[0].Rows[0][4]), "rmc1-rmssd-reduction-x")
}

func BenchmarkFig14_LocalitySensitivity(b *testing.B) {
	tabs := runExperiment(b, "fig14")
	// RecSSD degradation factor from K=0 to K=2 on RMC1.
	hi := cellFloat(b, tabs[0].Rows[0][2])
	lo := cellFloat(b, tabs[0].Rows[3][2])
	b.ReportMetric(hi/lo, "recssd-degradation-x")
}

func BenchmarkFig15_MLPDominatedModels(b *testing.B) {
	tabs := runExperiment(b, "fig15")
	// NCF RM-SSD throughput (paper: 232.6K QPS).
	b.ReportMetric(cellFloat(b, tabs[0].Rows[0][5])*1000, "ncf-rmssd-qps")
}

func BenchmarkTable5_KernelSearch(b *testing.B) { runExperiment(b, "table5") }

func BenchmarkTable6_ResourceConsumption(b *testing.B) {
	tabs := runExperiment(b, "table6")
	// DSP ratio naive/searched for RMC1 (paper: 612/41 ~ 15x).
	var naive, op float64
	for _, row := range tabs[0].Rows {
		if row[0] == "RMC1" && row[1] == "MLP-naive" {
			naive = cellFloat(b, row[5])
		}
		if row[0] == "RMC1" && row[1] == "MLP-op" {
			op = cellFloat(b, row[5])
		}
	}
	b.ReportMetric(naive/op, "dsp-saving-x")
}

// --- micro-benchmarks of the simulator's hot paths ---

func smallCfg(b *testing.B, name string) rmssd.ModelConfig {
	b.Helper()
	cfg, err := rmssd.ModelByName(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg.RowsPerTable = cfg.RowsForBudget(64 << 20)
	return cfg
}

func BenchmarkLookupEnginePool(b *testing.B) {
	cfg := smallCfg(b, "RMC1")
	env := baseline.MustNewEnv(cfg, rmssd.DefaultGeometry())
	eng := engine.NewLookupEngine(env.Store, env.Dev)
	gen := trace.MustNew(trace.Config{Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 1})
	sparse := gen.Inference()
	b.ResetTimer()
	var at sim.Time
	for i := 0; i < b.N; i++ {
		var err error
		_, at, err = eng.PoolBatch(at, [][][]int64{sparse}, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.Tables*cfg.Lookups), "lookups/op")
}

func BenchmarkRMSSDInferBatch(b *testing.B) {
	cfg := smallCfg(b, "RMC1")
	dev := rmssd.MustNewDevice(cfg, rmssd.DeviceOptions{})
	gen := trace.MustNew(trace.Config{Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 1})
	sparse := gen.Batch(4)
	b.ResetTimer()
	var at sim.Time
	for i := 0; i < b.N; i++ {
		var err error
		at, _, err = dev.InferBatchTiming(at, sparse)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHostReferenceInference(b *testing.B) {
	cfg := smallCfg(b, "RMC1")
	m := model.MustBuild(cfg)
	gen := trace.MustNew(trace.Config{Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 1})
	dense := gen.DenseInput(0, cfg.DenseDim)
	sparse := gen.Inference()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Infer(dense, sparse)
	}
}

func BenchmarkKernelSearch(b *testing.B) {
	m := model.MustBuild(smallCfg(b, "RMC3"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.NewMLPEngine(m, engine.DesignSearched, rmssd.XCVU9P); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	cfg := smallCfg(b, "RMC2")
	gen := trace.MustNew(trace.Config{Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen.Inference()
	}
}

func BenchmarkSSDSInference(b *testing.B) {
	cfg := smallCfg(b, "RMC1")
	env := baseline.MustNewEnv(cfg, rmssd.DefaultGeometry())
	sys := baseline.NewSSDS(env)
	gen := trace.MustNew(trace.Config{Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 1})
	b.ResetTimer()
	var at sim.Time
	for i := 0; i < b.N; i++ {
		at, _ = sys.InferBatchTiming(at, gen.Batch(1))
	}
}

func BenchmarkAblations(b *testing.B) { runExperiment(b, "ablation") }

func BenchmarkWriteLoad(b *testing.B) {
	tabs := runExperiment(b, "writeload")
	rows := tabs[0].Rows
	base := cellFloat(b, rows[0][1])
	heavy := cellFloat(b, rows[len(rows)-1][1])
	b.ReportMetric(base/heavy, "update-slowdown-x")
}
