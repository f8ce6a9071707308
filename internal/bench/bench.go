// Package bench regenerates every table and figure of the paper's
// evaluation (Section VI) from the simulated systems. Each experiment is a
// function from Options to one or more Tables whose rows mirror the paper's
// reported series; the cmd/rmbench binary and the repository's Benchmark*
// functions are thin wrappers over this package.
//
// Host-side systems (DRAM, SSD-S/M, EMB-*, RecSSD) are measured by running
// warm-up and measurement batch iterations through their simulated data
// paths (iterate). RM-SSD throughput in the paper figures is the analytic
// steady-state pipeline model of internal/core, not a measurement: it sits
// 2.6-11.6 % above the measured pipelined replay on RMC1-3 (the pipelining
// ablation prints both, e.g. RMC1 1339.3 vs 1200.2 QPS). ROADMAP's
// "Measure the headline figures from replays" item tracks replacing it.
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"

	"rmssd/internal/baseline"
	"rmssd/internal/core"
	"rmssd/internal/engine"
	"rmssd/internal/flash"
	"rmssd/internal/model"
	"rmssd/internal/sim"
	"rmssd/internal/trace"
)

// Options tunes experiment scale. The zero value is usable: paper-scale
// tables with a reduced iteration count.
type Options struct {
	// Iterations is the number of measured batch iterations per cell
	// (the paper uses 1000; results are reported per-1K-iterations
	// regardless). Default 60.
	Iterations int
	// WarmupIterations run before measurement. Default Iterations/2.
	WarmupIterations int
	// TableBytes is the total embedding-table size per model.
	// Default 30 GB (Section VI-A).
	TableBytes int64
	// Seed drives trace generation.
	Seed uint64
	// LocalityK selects the input-trace locality (Fig. 14 presets).
	// Default 0.3 (65 % hit ratio).
	LocalityK float64
	// Parallel bounds the number of goroutines used to evaluate
	// independent experiment cells (each cell builds its own systems and
	// devices over the shared read-only model of its config, modelFor,
	// and writes only its own output slot, so the rendered tables are
	// byte-identical at any setting). 0 means GOMAXPROCS; 1 runs the
	// plain sequential loop.
	Parallel int
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Iterations == 0 {
		o.Iterations = 60
	}
	if o.WarmupIterations == 0 {
		o.WarmupIterations = o.Iterations / 2
	}
	if o.TableBytes == 0 {
		o.TableBytes = model.TableIIIBudget
	}
	if o.LocalityK == 0 {
		o.LocalityK = 0.3
	}
	if o.Seed == 0 {
		o.Seed = 0xbe9c
	}
	if o.Parallel == 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	return o
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned text. The first write error, if any,
// is returned; rendering stops at that point.
func (t *Table) Render(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		ew.println(strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		ew.printf("note: %s\n", n)
	}
	ew.println()
	return ew.err
}

// errWriter remembers the first write error and discards writes after it,
// letting Render format freely and report failure once at the end.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err != nil {
		return
	}
	_, ew.err = fmt.Fprintf(ew.w, format, args...)
}

func (ew *errWriter) println(args ...any) {
	if ew.err != nil {
		return
	}
	_, ew.err = fmt.Fprintln(ew.w, args...)
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	if err := t.Render(&sb); err != nil {
		panic(fmt.Sprintf("bench: rendering to a strings.Builder failed: %v", err))
	}
	return sb.String()
}

// RenderCSV writes the table as RFC-4180 CSV (title and notes as comment
// rows are omitted; the header row leads).
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Experiment is a named, runnable paper experiment.
type Experiment struct {
	Name        string
	Description string
	Run         func(Options) []*Table
}

// Experiments returns the registry of all reproducible tables and figures,
// in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table2", "emulated SSD settings (Table II)", func(o Options) []*Table { return []*Table{Table2()} }},
		{"table3", "DLRM model zoo (Table III)", func(o Options) []*Table { return []*Table{Table3()} }},
		{"fig2", "naive SSD deployment: exec time + breakdown (Fig. 2)", Fig2},
		{"fig3", "read amplification (Fig. 3)", Fig3},
		{"fig4", "embedding access pattern (Fig. 4)", Fig4},
		{"fig10", "SLS operator implementations (Fig. 10)", Fig10},
		{"fig11", "end-to-end embedding engines + breakdown (Fig. 11)", Fig11},
		{"fig12", "throughput vs batch size, all systems (Fig. 12)", Fig12},
		{"fig13", "latency of all systems (Fig. 13)", Fig13},
		{"table4", "I/O traffic reduction (Table IV)", Table4},
		{"fig14", "locality sensitivity: RM-SSD vs RecSSD (Fig. 14)", Fig14},
		{"fig15", "MLP-dominated models NCF and WnD (Fig. 15)", Fig15},
		{"table5", "kernel sizes from the search (Table V)", func(o Options) []*Table { return []*Table{Table5()} }},
		{"table6", "MLP engine resource consumption (Table VI)", func(o Options) []*Table { return []*Table{Table6()} }},
		{"ablation", "design-choice ablations (beyond the paper)", Ablations},
		{"writeload", "inference under table-update writes, GC'd FTL (beyond the paper)", WriteLoad},
		{"energy", "energy per inference across deployments (beyond the paper)", EnergyStudy},
		{"quant", "INT8 embedding quantization trade-off (beyond the paper)", QuantStudy},
		{"serving", "online serving tail latency vs load (beyond the paper)", ServingStudy},
	}
}

// Find returns the experiment with the given name.
func Find(name string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, nil
		}
	}
	names := make([]string, 0)
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %s)", name, strings.Join(names, ", "))
}

// --- shared construction helpers ---

// scaledConfig returns the named model sized to the option's table budget.
func scaledConfig(name string, opts Options) model.Config {
	cfg, err := model.ConfigByName(name)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	cfg.RowsPerTable = cfg.RowsForBudget(opts.TableBytes)
	if cfg.RowsPerTable < 1 {
		cfg.RowsPerTable = 1
	}
	return cfg
}

// geometryFor sizes the flash array to hold the model's tables (the Table
// II device holds 32 GB; smaller table budgets get proportionally smaller
// arrays so construction stays cheap).
func geometryFor(cfg model.Config) flash.Geometry {
	g := flash.DefaultGeometry()
	need := cfg.TableBytes() + cfg.TableBytes()/8 + (64 << 20)
	if need < g.CapacityBytes() {
		pagesPerPlane := need / int64(g.PageSize) / int64(g.Channels*g.DiesPerChannel*g.PlanesPerDie)
		blocks := int(pagesPerPlane/int64(g.PagesPerBlock)) + 1
		g.BlocksPerPlane = blocks
	}
	return g
}

// traceFor builds the synthetic input generator for a model.
func traceFor(cfg model.Config, opts Options) *trace.Generator {
	tc := trace.Config{
		Tables:  cfg.Tables,
		Rows:    cfg.RowsPerTable,
		Lookups: cfg.Lookups,
		Seed:    opts.Seed,
	}
	tc = tc.Default()
	if opts.LocalityK != 0.3 {
		var err error
		tc, err = tc.WithLocality(opts.LocalityK)
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
	}
	return trace.MustNew(tc)
}

// envFor lays a model out on a fresh device.
func envFor(cfg model.Config) *baseline.Env {
	env, err := baseline.NewEnvFromModel(modelFor(cfg), geometryFor(cfg))
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return env
}

// builtModels memoises one model.Model per config for the life of the
// process. A model is read-only once built (DESIGN §16), so every cell,
// device and baseline of every experiment that hosts a config reads the
// same weights, built once. Safe under Options.Parallel: the first cell to
// ask for a config builds it and concurrent askers wait for that build.
var builtModels sync.Map // fmt.Sprintf("%#v", cfg) → *builtModel

type builtModel struct {
	once sync.Once
	m    *model.Model
}

// modelFor returns the memoised model of cfg, building it on first use.
func modelFor(cfg model.Config) *model.Model {
	e, _ := builtModels.LoadOrStore(fmt.Sprintf("%#v", cfg), new(builtModel))
	b := e.(*builtModel)
	b.once.Do(func() { b.m = model.MustBuild(cfg) })
	return b.m
}

// iterate runs n chained batch iterations of sys from now, each over the
// next batch inferences of gen, and returns the last completion time and
// the breakdown summed over the n iterations. A warm-up is one call and the
// measurement a second call from the first's completion time; a caller that
// counts traffic resets its statistics between the two.
func iterate(sys baseline.System, gen *trace.Generator, batch, n int, now sim.Time) (sim.Time, baseline.Breakdown) {
	var sum baseline.Breakdown
	for i := 0; i < n; i++ {
		done, bd := sys.InferBatchTiming(now, gen.Batch(batch))
		now = done
		sum = sum.Add(bd)
	}
	return now, sum
}

// recssdFor builds RecSSD with a host cache proportional to the table
// size (capped at the default 512 MiB): the paper's premise is that tables
// far exceed host memory, which must hold at reduced experiment scales too.
// The cache is statically pre-populated with the trace's hot set, as the
// paper describes for RecSSD's history-partitioned cache.
func recssdFor(cfg model.Config, opts Options) *baseline.RecSSD {
	cache := cfg.TableBytes() / 8
	if cache > baseline.DefaultRecSSDCacheBytes {
		cache = baseline.DefaultRecSSDCacheBytes
	}
	rec := baseline.NewRecSSDWithCache(envFor(cfg), cache)
	gen := traceFor(cfg, opts)
	rec.PreWarmHot(gen.HotRow, gen.HotSetSize())
	return rec
}

// rmssdFor builds a full RM-SSD (or the naive variant) for a model.
func rmssdFor(cfg model.Config, design engine.Design) *core.RMSSD {
	r, err := core.NewFromModel(modelFor(cfg), core.Options{Geometry: geometryFor(cfg), Design: design})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return r
}

// fmtSeconds renders a duration in seconds with an adaptive precision.
func fmtSeconds(sec float64) string {
	switch {
	case sec >= 100:
		return fmt.Sprintf("%.0f", sec)
	case sec >= 1:
		return fmt.Sprintf("%.1f", sec)
	default:
		return fmt.Sprintf("%.2f", sec)
	}
}

// fmtQPS renders a throughput.
func fmtQPS(q float64) string {
	if q >= 10000 {
		return fmt.Sprintf("%.0f", q)
	}
	return fmt.Sprintf("%.1f", q)
}
