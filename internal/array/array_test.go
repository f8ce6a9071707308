package array

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"rmssd/internal/core"
	"rmssd/internal/engine"
	"rmssd/internal/flash"
	"rmssd/internal/model"
	"rmssd/internal/obs"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
	"rmssd/internal/trace"
)

func smallGeometry() flash.Geometry {
	return flash.Geometry{
		Channels:       4,
		DiesPerChannel: 4,
		PlanesPerDie:   2,
		BlocksPerPlane: 64,
		PagesPerBlock:  16,
		PageSize:       4096,
	}
}

func smallCfg(name string) model.Config {
	c, err := model.ConfigByName(name)
	if err != nil {
		panic(fmt.Sprintf("array: %v", err))
	}
	c.RowsPerTable = 2048
	return c
}

// genInputs draws deterministic batches shaped for cfg.
func genInputs(cfg model.Config, n int, seed uint64) ([]tensor.Vector, [][][]int64) {
	g := trace.MustNew(trace.Config{
		Tables:  cfg.Tables,
		Rows:    cfg.RowsPerTable,
		Lookups: cfg.Lookups,
		Seed:    seed,
	})
	denses := make([]tensor.Vector, n)
	sparses := g.Batch(n)
	for i := range denses {
		denses[i] = g.DenseInput(i, cfg.DenseDim)
	}
	return denses, sparses
}

// optionMatrix is the cache x dedup x fault differential grid; every cell
// must produce bitwise-identical predictions. The parallel cells set the
// deprecated core.Options.Parallel, which must change nothing.
var optionMatrix = []struct {
	name string
	opts core.Options
}{
	{"plain", core.Options{}},
	{"parallel", core.Options{Parallel: 4}},
	{"evcache", core.Options{EVCacheBytes: 1 << 20}},
	{"dedup", core.Options{DedupLookups: true}},
	{"evcache+dedup+parallel", core.Options{EVCacheBytes: 1 << 20, DedupLookups: true, Parallel: 4}},
	{"faults", core.Options{FaultPlan: flash.FaultPlan{Rate: 0.02, Seed: 5}}},
}

// batchTrace is everything one InferBatch emits, flattened for comparison.
type batchTrace struct {
	preds []uint32 // bit patterns: comparison must be exact, not approximate
	done  sim.Time
	bd    core.Breakdown
	err   bool
}

func runBatches(t *testing.T, dev interface {
	InferBatch(at sim.Time, denses []tensor.Vector, sparses [][][]int64) ([]float32, sim.Time, core.Breakdown, error)
}, cfg model.Config, batches int) []batchTrace {
	t.Helper()
	var out []batchTrace
	now := sim.Time(0)
	for b := 0; b < batches; b++ {
		denses, sparses := genInputs(cfg, 3+b%3, uint64(100+b))
		outs, done, bd, err := dev.InferBatch(now, denses, sparses)
		tr := batchTrace{done: done, bd: bd, err: err != nil}
		for _, p := range outs {
			tr.preds = append(tr.preds, math.Float32bits(p))
		}
		out = append(out, tr)
		now = done
	}
	return out
}

func diffTraces(t *testing.T, label string, got, want []batchTrace) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d batches vs %d", label, len(got), len(want))
	}
	for b := range got {
		g, w := got[b], want[b]
		if g.err != w.err {
			t.Fatalf("%s: batch %d error mismatch: %v vs %v", label, b, g.err, w.err)
		}
		if g.done != w.done {
			t.Fatalf("%s: batch %d done %v vs %v", label, b, g.done, w.done)
		}
		if !reflect.DeepEqual(g.bd, w.bd) {
			t.Fatalf("%s: batch %d breakdown %+v vs %+v", label, b, g.bd, w.bd)
		}
		if len(g.preds) != len(w.preds) {
			t.Fatalf("%s: batch %d %d preds vs %d", label, b, len(g.preds), len(w.preds))
		}
		for i := range g.preds {
			if g.preds[i] != w.preds[i] {
				t.Fatalf("%s: batch %d pred %d bits %08x vs %08x", label, b, i, g.preds[i], w.preds[i])
			}
		}
	}
}

// A one-member array must be bit-identical to a bare device: predictions,
// simulated times, stage breakdowns and emitted spans — across designs and
// the whole option matrix. This is the differential anchor the N>1 scatter/
// gather path hangs off.
func TestOneDeviceArrayMatchesCore(t *testing.T) {
	for _, design := range []engine.Design{engine.DesignSearched, engine.DesignNaive} {
		for _, m := range optionMatrix {
			t.Run(fmt.Sprintf("%v/%s", design, m.name), func(t *testing.T) {
				cfg := smallCfg("RMC1")
				opts := m.opts
				opts.Geometry = smallGeometry()
				opts.Design = design

				ref, err := core.New(cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.ArrayDevices = 1
				arr, err := New(cfg, opts)
				if err != nil {
					t.Fatal(err)
				}

				var refSpans, arrSpans []obs.DeviceSpan
				ref.SetSpanSink(func(sp obs.DeviceSpan) { refSpans = append(refSpans, sp) })
				arr.Devices()[0].SetSpanSink(func(sp obs.DeviceSpan) { arrSpans = append(arrSpans, sp) })

				want := runBatches(t, ref, cfg, 6)
				got := runBatches(t, arr, cfg, 6)
				diffTraces(t, "array(1) vs core", got, want)
				if searched := design == engine.DesignSearched; searched != (len(want[0].bd.Lanes) > 0) {
					t.Fatalf("design %v: breakdown has %d lanes", design, len(want[0].bd.Lanes))
				}

				if len(refSpans) != len(arrSpans) {
					t.Fatalf("%d core spans vs %d array spans", len(refSpans), len(arrSpans))
				}
				for i := range refSpans {
					if !reflect.DeepEqual(refSpans[i], arrSpans[i]) {
						t.Fatalf("span %d: %+v vs %+v", i, arrSpans[i], refSpans[i])
					}
				}
				if ref.Inferences() != arr.Inferences() {
					t.Fatalf("inferences %d vs %d", arr.Inferences(), ref.Inferences())
				}
				if got, want := arr.SteadyStateQPS(4), ref.SteadyStateQPS(4); got != want {
					t.Fatalf("analytic QPS %v vs %v", got, want)
				}
				if got, want := arr.Latency(4), ref.Latency(4); got != want {
					t.Fatalf("analytic latency %v vs %v", got, want)
				}
			})
		}
	}
}

// Every member of an array built from a model reads that model's weights in
// place under its own member config, two arrays over one model run
// independently, and NewFromModel is bit-identical to New.
func TestNewFromModelSharesWeights(t *testing.T) {
	cfg := smallCfg("RMC1")
	opts := core.Options{Geometry: smallGeometry(), ArrayDevices: 3, Partition: "hash"}
	m := model.MustBuild(cfg)
	a, err := NewFromModel(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFromModel(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkMembersViewModel(t, "RMC1", m, a, b)
	for _, arr := range []*Array{a, b} {
		for d, dev := range arr.Devices() {
			got := dev.Model()
			if want := arr.Layout().MemberConfig(cfg, d); !reflect.DeepEqual(got.Cfg, want) {
				t.Fatalf("member %d hosts %+v, want %+v", d, got.Cfg, want)
			}
		}
	}
	ref, err := New(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := runBatches(t, ref, cfg, 6)
	diffTraces(t, "NewFromModel vs New", runBatches(t, a, cfg, 6), want)
	diffTraces(t, "second array over the same model", runBatches(t, b, cfg, 6), want)
}

// Every member's engine layers, the decomposed top-L0 halves included, read
// the hosted model's weights in place, for every built-in model and every
// engine design: all members of both arrays share even Le's storage.
func TestMemberEngineLayersViewHostedWeights(t *testing.T) {
	for _, cfg := range model.AllConfigs() {
		cfg.RowsPerTable = 2048
		m := model.MustBuild(cfg)
		for _, d := range []engine.Design{engine.DesignSearched, engine.DesignDefault, engine.DesignNaive} {
			opts := core.Options{Geometry: smallGeometry(), ArrayDevices: 2, Partition: "hash", Design: d}
			a, err := NewFromModel(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewFromModel(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkMembersViewModel(t, cfg.Name+"/"+d.String(), m, a, b)
		}
	}
}

// checkMembersViewModel fails unless every MLP-engine layer of every member
// lies inside one of m's layer weight arrays and all members share one
// Emb.W backing array.
func checkMembersViewModel(t *testing.T, name string, m *model.Model, arrs ...*Array) {
	t.Helper()
	layers := append(append([]model.Layer{}, m.Bottom...), m.Top...)
	var emb *float32
	for _, arr := range arrs {
		for d, dev := range arr.Devices() {
			for _, l := range dev.MLP().Layers() {
				inside := false
				for _, ml := range layers {
					inside = inside || within(l.W.Data, ml.W.Data)
				}
				if !inside {
					t.Fatalf("%s: member %d layer %s holds its own weight copy", name, d, l.Name)
				}
			}
			if e := dev.MLP().Emb; e != nil {
				if emb == nil {
					emb = &e.W.Data[0]
				}
				if &e.W.Data[0] != emb {
					t.Fatalf("%s: member %d holds separate Le weights", name, d)
				}
			}
		}
	}
}

// within reports whether sub lies inside whole's storage: a slice of whole
// shares the end of its backing array, so their capacities give its offset.
func within(sub, whole []float32) bool {
	k := cap(whole) - cap(sub)
	return len(sub) > 0 && k >= 0 && k+len(sub) <= len(whole) && &whole[:cap(whole)][k] == &sub[0]
}

// Partitioned arrays stay functionally correct: predictions match the DRAM
// reference model within float tolerance for every strategy and member
// count (exact equality with the single device is not promised — partial
// sums reassociate the float adds — but the reference bound is).
func TestArrayMatchesReferenceModel(t *testing.T) {
	for _, strat := range []Strategy{StrategyRange, StrategyHash} {
		for _, devices := range []int{2, 4} {
			cfg := smallCfg("RMC2")
			arr, err := New(cfg, core.Options{
				Geometry: smallGeometry(), ArrayDevices: devices, Partition: string(strat),
			})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := model.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			denses, sparses := genInputs(cfg, 4, 17)
			outs, done, _, err := arr.InferBatch(0, denses, sparses)
			if err != nil {
				t.Fatal(err)
			}
			if done <= 0 {
				t.Fatalf("%s/%d: no time elapsed", strat, devices)
			}
			for i := range outs {
				want := ref.Infer(denses[i], sparses[i])
				if math.Abs(float64(outs[i]-want)) > 1e-4 {
					t.Errorf("%s/%d item %d: got %v, want %v", strat, devices, i, outs[i], want)
				}
			}
		}
	}
}

// The determinism contract at N > 1: predictions are byte-identical across
// the cache x dedup x fault matrix and across reruns, and simulated times
// are byte-identical across reruns (locality and faults shift timing by
// design, so times pin within a cell).
func TestArrayDifferentialDeterminism(t *testing.T) {
	for _, strat := range []Strategy{StrategyRange, StrategyHash} {
		for _, devices := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/%d", strat, devices), func(t *testing.T) {
				run := func(opts core.Options) []batchTrace {
					opts.Geometry = smallGeometry()
					opts.ArrayDevices = devices
					opts.Partition = string(strat)
					cfg := smallCfg("RMC1")
					arr, err := New(cfg, opts)
					if err != nil {
						t.Fatal(err)
					}
					return runBatches(t, arr, cfg, 6)
				}
				base := run(optionMatrix[0].opts)
				for _, m := range optionMatrix[1:] {
					got := run(m.opts)
					// Predictions must agree bit for bit in every cell.
					for b := range base {
						if len(got[b].preds) != len(base[b].preds) {
							t.Fatalf("%s: batch %d pred count changed", m.name, b)
						}
						for i := range base[b].preds {
							if got[b].preds[i] != base[b].preds[i] {
								t.Fatalf("%s: batch %d pred %d bits %08x vs plain %08x",
									m.name, b, i, got[b].preds[i], base[b].preds[i])
							}
						}
					}
				}
				// Reruns reproduce everything byte for byte.
				diffTraces(t, "rerun", run(optionMatrix[0].opts), base)
			})
		}
	}
}

// Every span an array emits — member and top, served and failed — must
// satisfy the repo's span-accounting invariants, and the top member's span
// must cover the batch end to end.
func TestArraySpanInvariants(t *testing.T) {
	for _, m := range optionMatrix {
		t.Run(m.name, func(t *testing.T) {
			cfg := smallCfg("RMC1")
			opts := m.opts
			opts.Geometry = smallGeometry()
			opts.ArrayDevices = 4
			opts.Partition = string(StrategyHash)
			arr, err := New(cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			type emitted struct {
				dev  int
				span obs.DeviceSpan
			}
			var spans []emitted
			for d, dev := range arr.Devices() {
				dev.SetSpanSink(func(sp obs.DeviceSpan) { spans = append(spans, emitted{d, sp}) })
			}
			now := sim.Time(0)
			for b := 0; b < 6; b++ {
				spans = spans[:0]
				denses, sparses := genInputs(cfg, 4, uint64(300+b))
				_, done, _, err := arr.InferBatch(now, denses, sparses)
				if err != nil {
					// A faulted batch still emits failed spans for every
					// active member and still advances the clock.
					if done < now {
						t.Fatalf("batch %d: clock ran backwards", b)
					}
				}
				if len(spans) == 0 {
					t.Fatalf("batch %d: no spans emitted", b)
				}
				last := spans[len(spans)-1]
				if last.dev != arr.Top() {
					t.Fatalf("batch %d: final span from member %d, want top %d", b, last.dev, arr.Top())
				}
				if !last.span.Failed && last.span.Done != done {
					t.Fatalf("batch %d: top span done %v, batch done %v", b, last.span.Done, done)
				}
				for _, e := range spans {
					if err := e.span.Validate(); err != nil {
						t.Fatalf("batch %d member %d: %v", b, e.dev, err)
					}
					if e.span.Start != now {
						t.Fatalf("batch %d member %d: span starts at %v, batch at %v", b, e.dev, e.span.Start, now)
					}
				}
				now = done
			}
		})
	}
}

// An uncorrectable member read fails the whole array batch with the typed
// device errors, emits no predictions, advances the clock, and leaves the
// array serviceable (scatter/gather state is per batch).
func TestArrayFaultContainment(t *testing.T) {
	cfg := smallCfg("RMC1")
	arr, err := New(cfg, core.Options{
		Geometry:     smallGeometry(),
		ArrayDevices: 2,
		FaultPlan:    flash.FaultPlan{Rate: 0.97, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	denses, sparses := genInputs(cfg, 4, 23)
	outs, done, bd, err := arr.InferBatch(0, denses, sparses)
	if err == nil {
		t.Fatal("no error at 97% fault rate")
	}
	if !errors.Is(err, core.ErrReadFault) || !errors.Is(err, flash.ErrUncorrectable) {
		t.Fatalf("err = %v, want ErrReadFault/ErrUncorrectable", err)
	}
	if outs != nil {
		t.Fatalf("failed batch produced predictions: %v", outs)
	}
	if done <= 0 {
		t.Fatal("failed batch did not advance the clock")
	}
	if bd.Send <= 0 || bd.Emb <= 0 || bd.Bot != 0 || bd.Top != 0 || bd.Read != 0 {
		t.Fatalf("failed breakdown %+v, want send+emb only", bd)
	}
	// The failed batch's emb stage runs until every member resolved its
	// lookups, over both members' die lanes.
	if bd.Total() != done {
		t.Fatalf("failed breakdown totals %v, batch failed at %v", bd.Total(), done)
	}
	checkLanes(t, arr, bd)
	if arr.Inferences() != 0 {
		t.Fatalf("failed batch counted %d inferences", arr.Inferences())
	}
	// A later batch on a fault-free clone of the inputs still works: build
	// an unfaulted array and replay the same stream to prove the inputs are
	// fine, then keep driving the faulted array until a batch survives.
	clean, err := New(cfg, core.Options{Geometry: smallGeometry(), ArrayDevices: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := clean.InferBatch(0, denses, sparses); err != nil {
		t.Fatalf("unfaulted array rejected the same batch: %v", err)
	}
}

// checkLanes asserts an array batch's breakdown carries every member's
// lanes, member-major, each fitting inside the emb stage, and that each
// member loaded its own dies.
func checkLanes(t *testing.T, arr *Array, bd core.Breakdown) {
	t.Helper()
	devs := arr.Devices()
	per := len(devs[0].Lookup().Loads()) + 2 // dies and port, Le kernel, bottom MLP
	if len(bd.Lanes) != per*len(devs) {
		t.Fatalf("%d lanes, want %d per member for %d members", len(bd.Lanes), per, len(devs))
	}
	emb := bd.Stages()[1]
	for d := range devs {
		var busy time.Duration
		for _, ld := range bd.Lanes[d*per : d*per+per-3] {
			busy += ld.Busy
		}
		if busy == 0 {
			t.Fatalf("member %d: no die load", d)
		}
	}
	for l, ld := range bd.Lanes {
		if ld.Release < 0 || ld.Busy < 0 || ld.Release+ld.Busy > emb.Time {
			t.Fatalf("lane %d: %+v outside the emb stage %v", l, ld, emb.Time)
		}
	}
}

// A multi-member array's breakdown stays the device stage algebra over the
// gather: its stages add up to the batch latency, its emb stage carries
// every member's lanes, and a pipeline of its batches saturates no faster
// than they complete in isolation.
func TestArrayBreakdownLanes(t *testing.T) {
	cfg := smallCfg("RMC1")
	arr, err := New(cfg, core.Options{Geometry: smallGeometry(), ArrayDevices: 2, Partition: "hash"})
	if err != nil {
		t.Fatal(err)
	}
	var pipe sim.BlockingPipeline
	var now, serial, makespan sim.Time
	for b := 0; b < 6; b++ {
		denses, sparses := genInputs(cfg, 4, uint64(300+b))
		_, done, bd, err := arr.InferBatch(now, denses, sparses)
		if err != nil {
			t.Fatal(err)
		}
		if bd.Total() != done-now {
			t.Fatalf("batch %d: stages total %v, latency %v", b, bd.Total(), done-now)
		}
		checkLanes(t, arr, bd)
		serial += done - now
		makespan = pipe.Push(0, bd.Stages())
		now = done
	}
	if makespan > serial || makespan <= 0 {
		t.Fatalf("pipelined makespan %v, serial %v", makespan, serial)
	}
}

// Input validation is the logical model's: wrong shapes and out-of-range
// rows are rejected with the core typed errors before any member state or
// simulated time moves.
func TestArrayValidateInputs(t *testing.T) {
	cfg := smallCfg("RMC1")
	arr := MustNew(cfg, core.Options{Geometry: smallGeometry(), ArrayDevices: 2})
	denses, sparses := genInputs(cfg, 2, 31)

	if err := arr.ValidateInputs(denses[:1], sparses); !errors.Is(err, core.ErrShapeMismatch) {
		t.Fatalf("dense/sparse mismatch: %v", err)
	}
	bad := [][][]int64{{{0}}}
	if err := arr.ValidateInputs(denses[:1], bad); !errors.Is(err, core.ErrShapeMismatch) {
		t.Fatalf("table count mismatch: %v", err)
	}
	oob := genSparseWithRow(sparses, cfg.RowsPerTable)
	if err := arr.ValidateInputs(denses, oob); !errors.Is(err, core.ErrRowOutOfRange) {
		t.Fatalf("row out of range: %v", err)
	}
	neg := genSparseWithRow(sparses, -1)
	if err := arr.ValidateInputs(denses, neg); !errors.Is(err, core.ErrRowOutOfRange) {
		t.Fatalf("negative row: %v", err)
	}
	if _, _, _, err := arr.InferBatch(0, denses, oob); !errors.Is(err, core.ErrRowOutOfRange) {
		t.Fatalf("InferBatch accepted out-of-range row: %v", err)
	}
	// A rejected batch is neither served nor attempted: no counter moves
	// and no lookup is scattered.
	if st := arr.Stats(); st.Batches != 0 || st.Inferences != 0 || st.Scattered[0]+st.Scattered[1] != 0 {
		t.Fatalf("stats after rejection: %+v", st)
	}
}

func genSparseWithRow(sparses [][][]int64, row int64) [][][]int64 {
	out := make([][][]int64, len(sparses))
	for i := range sparses {
		out[i] = make([][]int64, len(sparses[i]))
		for t := range sparses[i] {
			out[i][t] = append([]int64(nil), sparses[i][t]...)
		}
	}
	out[0][0][0] = row
	return out
}

// Construction guards: core.New refuses multi-device options, New refuses a
// config that already carries a remap, and partition errors propagate.
func TestArrayConstructionGuards(t *testing.T) {
	cfg := smallCfg("RMC1")
	if _, err := core.New(cfg, core.Options{Geometry: smallGeometry(), ArrayDevices: 2}); err == nil {
		t.Fatal("core.New accepted ArrayDevices=2")
	}
	remapped := cfg
	remapped.RowBase = 10
	if _, err := New(remapped, core.Options{Geometry: smallGeometry(), ArrayDevices: 2}); err == nil {
		t.Fatal("New accepted a pre-remapped config")
	}
	if _, err := New(cfg, core.Options{Geometry: smallGeometry(), ArrayDevices: 2, Partition: "modulo"}); err == nil {
		t.Fatal("New accepted an unknown partition strategy")
	}
	if _, err := New(cfg, core.Options{Geometry: smallGeometry(), ArrayDevices: MaxDevices + 1}); err == nil {
		t.Fatal("New accepted too many devices")
	}
}

// The scatter counters must account exactly for the lookups driven through
// the array, and the gather counters only for multi-member traffic.
func TestArrayStatsAccounting(t *testing.T) {
	cfg := smallCfg("RMC1")
	arr := MustNew(cfg, core.Options{Geometry: smallGeometry(), ArrayDevices: 4, Partition: "hash"})
	denses, sparses := genInputs(cfg, 5, 41)
	if _, _, _, err := arr.InferBatch(0, denses, sparses); err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, sp := range sparses {
		for _, rows := range sp {
			want += int64(len(rows))
		}
	}
	st := arr.Stats()
	var scattered int64
	for _, n := range st.Scattered {
		scattered += n
	}
	if scattered != want {
		t.Fatalf("scattered %d lookups, want %d", scattered, want)
	}
	if st.Batches != 1 || st.Inferences != 5 {
		t.Fatalf("stats %+v", st)
	}
	if st.Transfers == 0 || st.Partials == 0 || st.TransferBytes != st.Partials*int64(cfg.EVSize()) {
		t.Fatalf("gather accounting %+v", st)
	}
	if st.Devices != 4 || st.Partition != StrategyHash {
		t.Fatalf("layout echo %+v", st)
	}
}

// Analytic array latency: a multi-member array pays the modeled gather hop
// on top of the member pipeline, and the transfer cost itself follows the
// DMA-style setup + bytes/bandwidth shape.
func TestArrayAnalyticCosts(t *testing.T) {
	cfg := smallCfg("RMC1")
	one := MustNew(cfg, core.Options{Geometry: smallGeometry()})
	four := MustNew(cfg, core.Options{Geometry: smallGeometry(), ArrayDevices: 4})
	n := one.NBatch()
	if four.NBatch() != n {
		t.Fatalf("NBatch moved with member count: %d vs %d", four.NBatch(), n)
	}
	if one.Latency(n) >= four.Latency(n) {
		t.Fatalf("gather hop is free: 1-dev %v, 4-dev %v", one.Latency(n), four.Latency(n))
	}
	if TransferCost(0) != 0 {
		t.Fatalf("zero-byte transfer costs %v", TransferCost(0))
	}
	if a, b := TransferCost(1), TransferCost(1<<20); a >= b {
		t.Fatalf("transfer cost not monotone: %v >= %v", a, b)
	}
}
