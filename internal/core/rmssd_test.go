package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"rmssd/internal/engine"
	"rmssd/internal/flash"
	"rmssd/internal/model"
	"rmssd/internal/obs"
	"rmssd/internal/params"
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
		panic(fmt.Sprintf("core: %v", err))
	}
	c.RowsPerTable = 2048
	return c
}

func newSmall(t *testing.T, name string, d engine.Design) *RMSSD {
	t.Helper()
	r, err := New(smallCfg(name), Options{Geometry: smallGeometry(), Design: d})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func genInputs(r *RMSSD, n int, seed uint64) ([]tensor.Vector, [][][]int64) {
	cfg := r.Model().Cfg
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

// End-to-end functional equivalence: the full in-storage path must produce
// the same CTR predictions as the DRAM reference, for every model.
func TestInferBatchMatchesReference(t *testing.T) {
	for _, name := range []string{"RMC1", "RMC2", "RMC3", "NCF", "WnD"} {
		r := newSmall(t, name, engine.DesignSearched)
		denses, sparses := genInputs(r, 3, 7)
		outs, done, bd, err := r.InferBatch(0, denses, sparses)
		if err != nil {
			t.Fatal(err)
		}
		if done <= 0 {
			t.Fatalf("%s: no time elapsed", name)
		}
		for i := range outs {
			want := r.Model().Infer(denses[i], sparses[i])
			if math.Abs(float64(outs[i]-want)) > 1e-4 {
				t.Errorf("%s item %d: got %v, want %v", name, i, outs[i], want)
			}
			if outs[i] <= 0 || outs[i] >= 1 {
				t.Errorf("%s item %d: CTR %v outside (0,1)", name, i, outs[i])
			}
		}
		if bd.Emb <= 0 || bd.Top <= 0 || bd.Send <= 0 || bd.Read <= 0 {
			t.Errorf("%s: incomplete breakdown %+v", name, bd)
		}
	}
}

// TestTimingPathAgreesWithDataPath pins that InferBatch and
// InferBatchTiming run one stage schedule: on both designs, plain, with
// an EV cache, with dedup and under fault injection, a stream of batches gives the same completion times,
// Breakdowns, error classes and emitted device spans whether or not values
// are computed.
func TestTimingPathAgreesWithDataPath(t *testing.T) {
	variants := []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"cache", Options{EVCacheBytes: 1 << 20}},
		{"dedup", Options{DedupLookups: true}},
		{"faults", Options{FaultPlan: flash.FaultPlan{Rate: 0.02, Seed: 9}}},
	}
	for _, design := range []engine.Design{engine.DesignSearched, engine.DesignNaive} {
		for _, v := range variants {
			name := fmt.Sprintf("%s/design%d", v.name, design)
			opts := v.opts
			opts.Geometry, opts.Design = smallGeometry(), design
			var spans [2][]obs.DeviceSpan
			var devs [2]*RMSSD
			for i := range devs {
				r, err := New(smallCfg("RMC1"), opts)
				if err != nil {
					t.Fatal(err)
				}
				r.SetSpanSink(func(sp obs.DeviceSpan) { spans[i] = append(spans[i], sp) })
				devs[i] = r
			}
			denses, sparses := hotInputs(t, devs[0].Model().Cfg, 16, 9)
			var at sim.Time
			for lo, n := 0, 1; lo < len(sparses); lo, n = lo+n, n%4+1 {
				hi := min(lo+n, len(sparses))
				_, doneA, bdA, errA := devs[0].InferBatch(at, denses[lo:hi], sparses[lo:hi])
				doneB, bdB, errB := devs[1].InferBatchTiming(at, sparses[lo:hi])
				if doneA != doneB || !reflect.DeepEqual(bdA, bdB) {
					t.Fatalf("%s batch at %d: paths diverge: %v/%+v vs %v/%+v", name, lo, doneA, bdA, doneB, bdB)
				}
				if (errA == nil) != (errB == nil) || errors.Is(errA, ErrReadFault) != errors.Is(errB, ErrReadFault) {
					t.Fatalf("%s batch at %d: errors diverge: %v vs %v", name, lo, errA, errB)
				}
				at = doneA
			}
			if len(spans[0]) == 0 || !reflect.DeepEqual(spans[0], spans[1]) {
				t.Fatalf("%s: spans diverge:\n%+v\n%+v", name, spans[0], spans[1])
			}
			// Each variant must actually exercise its feature.
			var hits, dups, retries int64
			for _, sp := range spans[0] {
				hits, dups, retries = hits+sp.CacheHits, dups+sp.DedupHits, retries+sp.ECCRetries
			}
			if (opts.EVCacheBytes > 0) != (hits > 0) || opts.DedupLookups != (dups > 0) || opts.FaultPlan.Enabled() != (retries > 0) {
				t.Fatalf("%s: cache hits %d, dedup hits %d, ECC retries %d", name, hits, dups, retries)
			}
		}
	}
}

func TestMMIOOverheadNegligible(t *testing.T) {
	// Section VI-C: interface overhead "less than tens of microseconds
	// (less than 1%) for each inference".
	r := newSmall(t, "RMC1", engine.DesignSearched)
	_, sparses := genInputs(r, 1, 3)
	done, bd, err := r.InferBatchTiming(0, sparses)
	if err != nil {
		t.Fatal(err)
	}
	overhead := bd.Send + bd.Read
	if overhead > 50*time.Microsecond {
		t.Fatalf("interface overhead %v too large", overhead)
	}
	if float64(overhead)/float64(done) > 0.05 {
		t.Fatalf("interface overhead is %.1f%% of latency", 100*float64(overhead)/float64(done))
	}
}

func TestHostReadBytes(t *testing.T) {
	r := newSmall(t, "RMC1", engine.DesignSearched)
	if got := r.HostReadBytesPerBatch(1); got != 64 {
		t.Fatalf("batch-1 host read = %d bytes, want 64 (MMIO data width)", got)
	}
	if got := r.HostReadBytesPerBatch(100); got != 400 {
		t.Fatalf("batch-100 host read = %d bytes", got)
	}
}

func TestRegistersLifecycle(t *testing.T) {
	r := newSmall(t, "RMC1", engine.DesignSearched)
	r.SendInputs(0, 4)
	reg := r.Registers()
	if reg.BatchSize != 4 || reg.ResultReady {
		t.Fatalf("after send: %+v", reg)
	}
	r.ReadOutputs(0, 4)
	if !r.Registers().ResultReady {
		t.Fatal("after read: result not ready")
	}
}

func TestSteadyStateQPSEmbeddingBound(t *testing.T) {
	// For embedding-dominated models the pipeline bottleneck must be the
	// embedding stage, and QPS must be near the analytic bEV bound.
	r := newSmall(t, "RMC1", engine.DesignSearched)
	res := sim.Pipeline(r.StageTimes(1)...)
	if res.Bottleneck != "emb" {
		t.Fatalf("bottleneck = %s, want emb", res.Bottleneck)
	}
	qps := r.SteadyStateQPS(1)
	want := 1.0 / engine.TembEstimate(r.Model().Cfg, 1, 4, 4).Seconds()
	if qps < want*0.9 || qps > want*1.1 {
		t.Fatalf("QPS = %.0f, want ~%.0f", qps, want)
	}
}

func TestLatencyVsThroughputBatching(t *testing.T) {
	// Larger device batches raise embedding-stage time linearly but
	// amortise: QPS(n) should not decrease with n for embedding-bound
	// models.
	r := newSmall(t, "RMC1", engine.DesignSearched)
	q1 := r.SteadyStateQPS(1)
	q4 := r.SteadyStateQPS(4)
	if q4 < q1*0.95 {
		t.Fatalf("QPS dropped with batching: %v -> %v", q1, q4)
	}
	if r.Latency(4) <= r.Latency(1) {
		t.Fatal("larger batches must have higher latency")
	}
}

func TestRMC3ThroughputScalesWithBatchThenSaturates(t *testing.T) {
	// Fig. 12(c): RMC3 throughput increases linearly with batch size
	// while MLP-bound, then saturates once embedding-bound.
	r := newSmall(t, "RMC3", engine.DesignSearched)
	q1 := r.SteadyStateQPS(1)
	q2 := r.SteadyStateQPS(2)
	q4 := r.SteadyStateQPS(4)
	if q2 < q1*1.8 || q4 < q2*1.8 {
		t.Fatalf("expected ~linear scaling: %v %v %v", q1, q2, q4)
	}
	nb := r.NBatch()
	qSat := r.SteadyStateQPS(nb)
	qBeyond := r.SteadyStateQPS(nb * 4)
	if qBeyond > qSat*1.1 {
		t.Fatalf("beyond saturation QPS should be flat: %v vs %v", qSat, qBeyond)
	}
}

func TestInferencesCounter(t *testing.T) {
	r := newSmall(t, "RMC1", engine.DesignSearched)
	_, sparses := genInputs(r, 3, 1)
	if _, _, err := r.InferBatchTiming(0, sparses); err != nil {
		t.Fatal(err)
	}
	if r.Inferences() != 3 {
		t.Fatalf("Inferences = %d", r.Inferences())
	}
}

func TestInferBatchValidation(t *testing.T) {
	r := newSmall(t, "RMC1", engine.DesignSearched)
	denses, sparses := genInputs(r, 2, 11)

	// Empty batch, mismatched dense count, wrong dense width, wrong table
	// count: all typed shape errors, none touching the device.
	if _, _, _, err := r.InferBatch(0, nil, nil); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("empty batch err = %v, want ErrShapeMismatch", err)
	}
	if _, _, _, err := r.InferBatch(0, denses[:1], sparses); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("dense count err = %v, want ErrShapeMismatch", err)
	}
	badDense := []tensor.Vector{make(tensor.Vector, 3), make(tensor.Vector, 3)}
	if _, _, _, err := r.InferBatch(0, badDense, sparses); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("dense width err = %v, want ErrShapeMismatch", err)
	}
	badTables := [][][]int64{sparses[0][:1], sparses[1][:1]}
	if _, _, _, err := r.InferBatch(0, denses, badTables); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("table count err = %v, want ErrShapeMismatch", err)
	}

	// Out-of-range row: typed row error naming the offender, still without
	// touching the flash (prevalidated before any device work).
	before := r.Device().Array().Stats()
	bad := [][][]int64{cloneSparse(sparses[0]), cloneSparse(sparses[1])}
	bad[1][2][0] = int64(r.Model().Cfg.RowsPerTable) + 7
	_, _, _, err := r.InferBatch(0, denses, bad)
	if !errors.Is(err, ErrRowOutOfRange) {
		t.Fatalf("row err = %v, want ErrRowOutOfRange", err)
	}
	if after := r.Device().Array().Stats(); after != before {
		t.Fatal("validation error must not touch the flash")
	}
	if r.Inferences() != 0 {
		t.Fatalf("failed batches must not count inferences, got %d", r.Inferences())
	}

	// The device still serves good batches afterwards.
	if _, _, _, err := r.InferBatch(0, denses, sparses); err != nil {
		t.Fatalf("device wedged after validation errors: %v", err)
	}

	// Timing path validates identically.
	if _, _, err := r.InferBatchTiming(0, badTables); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("timing table count err = %v, want ErrShapeMismatch", err)
	}
}

// cloneSparse deep-copies one inference's lookup indices.
func cloneSparse(sp [][]int64) [][]int64 {
	out := make([][]int64, len(sp))
	for i, rows := range sp {
		out[i] = append([]int64(nil), rows...)
	}
	return out
}

func TestVectorGrainedTrafficOnly(t *testing.T) {
	// The RM-SSD data path must never issue page-granular reads during
	// inference: read amplification is eliminated by design.
	r := newSmall(t, "RMC2", engine.DesignSearched)
	_, sparses := genInputs(r, 2, 5)
	if _, _, err := r.InferBatchTiming(0, sparses); err != nil {
		t.Fatal(err)
	}
	fs := r.Device().Array().Stats()
	if fs.PageReads != 0 {
		t.Fatalf("page reads = %d, want 0", fs.PageReads)
	}
	wantVecs := int64(2 * 32 * 120)
	if fs.VectorReads != wantVecs {
		t.Fatalf("vector reads = %d, want %d", fs.VectorReads, wantVecs)
	}
	if fs.BytesTransferred != wantVecs*256 {
		t.Fatalf("bus bytes = %d, want %d", fs.BytesTransferred, wantVecs*256)
	}
}

func TestNaiveDesignSlowerOnMLPDominated(t *testing.T) {
	// RM-SSD-Naive (no decomposition/composition/search) must trail the
	// full RM-SSD on MLP-dominated models (Fig. 12, Fig. 15).
	full := newSmall(t, "RMC3", engine.DesignSearched)
	naive, err := New(smallCfg("RMC3"), Options{Geometry: smallGeometry(), Design: engine.DesignNaive})
	if err != nil {
		t.Fatal(err)
	}
	// At the design batch the naive mapping serialises stages and batch
	// items, so its throughput trails badly (Fig. 12c's gap between
	// RM-SSD-Naive and RM-SSD).
	nb := full.NBatch()
	if nb < 2 {
		nb = 4
	}
	if qf, qn := full.SteadyStateQPS(nb), naive.SteadyStateQPS(nb); qf <= qn*1.5 {
		t.Fatalf("full RM-SSD %.0f QPS vs naive %.0f QPS at batch %d: want >=1.5x", qf, qn, nb)
	}
}

// TestOptionsDefaults checks the zero Options' geometry and the fixed
// construction choices: an MLP engine sized for the XCVU9P and tables laid
// out in 1 MiB extents.
func TestOptionsDefaults(t *testing.T) {
	if o := (Options{}).withDefaults(); o.Geometry.Channels != params.NumChannels {
		t.Fatalf("defaults = %+v", o)
	}
	cfg := smallCfg("RMC1")
	cfg.RowsPerTable = 3 << 20 / int64(cfg.EVSize()) // 3 MiB per table
	r, err := New(cfg, Options{Geometry: smallGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	if part := r.MLP().Part().Name; part != "XCVU9P" {
		t.Fatalf("MLP engine part %s, want XCVU9P", part)
	}
	exts := r.store.File(0).Extents()
	if len(exts) != 3 || exts[0].Len != 1<<20 {
		t.Fatalf("a 3 MiB table has extents %+v, want three of 1 MiB", exts)
	}
}

func TestBreakdownTotal(t *testing.T) {
	bd := Breakdown{Send: 1, Emb: 10, Bot: 4, Top: 2, Read: 3, Overlap: true}
	if bd.Total() != 16 { // send + max(emb,bot) + top + read
		t.Fatalf("searched Total = %v", bd.Total())
	}
	bd.Overlap = false
	if bd.Total() != 20 { // the naive design runs bot after emb
		t.Fatalf("naive Total = %v", bd.Total())
	}
}

func TestAccessorsAndErrors(t *testing.T) {
	r := newSmall(t, "RMC1", engine.DesignSearched)
	if r.MLP() == nil || r.Lookup() == nil {
		t.Fatal("engine accessors returned nil")
	}
	r.Device().ReadPage(0, 0)
	r.ResetTime()
	if r.Device().Drained() != 0 {
		t.Fatal("ResetTime did not idle the device")
	}
	// Construction failure paths.
	bad := smallCfg("RMC1")
	bad.Tables = 0
	if _, err := New(bad, Options{Geometry: smallGeometry()}); err == nil {
		t.Fatal("invalid model must fail")
	}
}

func TestNewFailsWhenTablesExceedDevice(t *testing.T) {
	cfg := smallCfg("RMC1")
	cfg.RowsPerTable = 1 << 30 // ~128 GB of tables on a tiny device
	if _, err := New(cfg, Options{Geometry: smallGeometry()}); err == nil {
		t.Fatal("expected device-full error")
	}
}

func TestDynamicCoreDevice(t *testing.T) {
	cfg := smallCfg("RMC1")
	cfg.RowsPerTable = 512 // keep materialisation cheap
	r, err := New(cfg, Options{Geometry: smallGeometry(), Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Device().IsDynamic() {
		t.Fatal("device not dynamic")
	}
	denses, sparses := genInputs(r, 2, 3)
	outs, _, _, err := r.InferBatch(0, denses, sparses)
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		want := r.Model().Infer(denses[i], sparses[i])
		if d := outs[i] - want; d > 1e-4 || d < -1e-4 {
			t.Fatalf("dynamic-device inference %d: %v vs %v", i, outs[i], want)
		}
	}
	// Concurrent update writes must not corrupt inference results.
	page := make([]byte, r.Device().PageSize())
	for i := 0; i < 50; i++ {
		r.Device().WritePage(0, int64(i%100), page)
	}
	outs2, _, _, err2 := r.InferBatch(0, denses, sparses)
	if err2 != nil {
		t.Fatal(err2)
	}
	_ = outs2 // values may legitimately change only for overwritten rows;
	// here we overwrote table pages with zeros, so just require sane output
	for _, o := range outs2 {
		if o <= 0 || o >= 1 {
			t.Fatalf("inference under writes produced %v", o)
		}
	}
}

func TestUpdateVector(t *testing.T) {
	r := newSmall(t, "RMC1", engine.DesignSearched)
	_, sparses := genInputs(r, 1, 5)
	table, row := 2, sparses[0][2][0]

	// Baseline pooled value via the lookup engine.
	pb, _, perr := r.Lookup().PoolBatch(0, sparses[:1], true)
	if perr != nil {
		t.Fatal(perr)
	}
	before := pb[0]

	// Overwrite the vector with zeros and re-pool: the contribution of
	// (table,row) must vanish from that table's sum.
	zero := make(tensor.Vector, r.Model().Cfg.EVDim)
	done, uerr := r.UpdateVector(0, table, row, zero)
	if uerr != nil {
		t.Fatal(uerr)
	}
	if done <= 0 {
		t.Fatal("update must take time")
	}
	pa, _, perr2 := r.Lookup().PoolBatch(done, sparses[:1], true)
	if perr2 != nil {
		t.Fatal(perr2)
	}
	after := pa[0]

	oldVec := r.Model().EmbeddingVector(table, row)
	occurrences := 0
	for _, rr := range sparses[0][table] {
		if rr == row {
			occurrences++
		}
	}
	for e := 0; e < r.Model().Cfg.EVDim; e++ {
		want := before[table][e] - float32(occurrences)*oldVec[e]
		if d := after[table][e] - want; d > 1e-4 || d < -1e-4 {
			t.Fatalf("elem %d: %v, want %v", e, after[table][e], want)
		}
	}
	// Other tables unaffected.
	if tensor.MaxAbsDiff(before[0], after[0]) != 0 {
		t.Fatal("update leaked into another table")
	}
}

func TestUpdateVectorErrors(t *testing.T) {
	r := newSmall(t, "RMC1", engine.DesignSearched)
	if _, err := r.UpdateVector(0, 0, 0, make(tensor.Vector, 3)); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("dim err = %v, want ErrShapeMismatch", err)
	}
	good := make(tensor.Vector, r.Model().Cfg.EVDim)
	if _, err := r.UpdateVector(0, 0, int64(r.Model().Cfg.RowsPerTable)+1, good); !errors.Is(err, ErrRowOutOfRange) {
		t.Fatalf("row err = %v, want ErrRowOutOfRange", err)
	}
	if _, err := r.UpdateVector(0, 0, 0, good); err != nil {
		t.Fatalf("valid update err = %v", err)
	}
}

// Devices built from one model read its weights in place, and a device built
// from a model is bit-identical to New's: the same predictions and
// Breakdowns batch for batch, with the sharing device interleaved so its
// traffic cannot disturb the other's. NCF has no bottom tower, so its top L0
// is the whole embedding half.
func TestNewFromModelSharesWeights(t *testing.T) {
	for _, name := range []string{"RMC1", "RMC3", "NCF"} {
		cfg := smallCfg(name)
		opts := Options{Geometry: smallGeometry()}
		m := model.MustBuild(cfg)
		a, err := NewFromModel(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewFromModel(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkEngineViewsModel(t, name, m, a, b)
		var atA, atB, atRef sim.Time
		for i, n := range []int{1, 3, 4, 2, 8} {
			denses, sparses := genInputs(ref, n, uint64(40+i))
			outs, done, bd, err := a.InferBatch(atA, denses, sparses)
			if err != nil {
				t.Fatal(err)
			}
			want, wantDone, wantBd, err := ref.InferBatch(atRef, denses, sparses)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bits(outs), bits(want)) || done != wantDone || !reflect.DeepEqual(bd, wantBd) {
				t.Fatalf("%s batch %d: NewFromModel (%v, %+v) differs from New (%v, %+v)",
					name, i, done, bd, wantDone, wantBd)
			}
			if _, atB, _, err = b.InferBatch(atB, denses, sparses); err != nil {
				t.Fatal(err)
			}
			atA, atRef = done, wantDone
		}
	}
}

// bits returns the predictions' bit patterns, so comparison is exact.
func bits(preds []float32) []uint32 {
	out := make([]uint32, len(preds))
	for i, p := range preds {
		out[i] = math.Float32bits(p)
	}
	return out
}

// Every engine layer, the decomposed top-L0 halves included, reads the
// hosted model's weights in place, for every built-in model and every
// engine design: two devices over one model share even Le's storage.
func TestEngineLayersViewHostedWeights(t *testing.T) {
	for _, cfg := range model.AllConfigs() {
		cfg.RowsPerTable = 2048
		m := model.MustBuild(cfg)
		for _, d := range []engine.Design{engine.DesignSearched, engine.DesignDefault, engine.DesignNaive} {
			opts := Options{Geometry: smallGeometry(), Design: d}
			a, err := NewFromModel(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewFromModel(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkEngineViewsModel(t, cfg.Name+"/"+d.String(), m, a, b)
		}
	}
}

// checkEngineViewsModel fails unless every MLP-engine layer of every device
// lies inside one of m's layer weight arrays and all devices share one
// Emb.W backing array.
func checkEngineViewsModel(t *testing.T, name string, m *model.Model, devs ...*RMSSD) {
	t.Helper()
	layers := append(append([]model.Layer{}, m.Bottom...), m.Top...)
	for i, dev := range devs {
		for _, l := range dev.MLP().Layers() {
			inside := false
			for _, ml := range layers {
				inside = inside || within(l.W.Data, ml.W.Data)
			}
			if !inside {
				t.Fatalf("%s: device %d layer %s holds its own weight copy", name, i, l.Name)
			}
		}
		if e := dev.MLP().Emb; e != nil && &e.W.Data[0] != &devs[0].MLP().Emb.W.Data[0] {
			t.Fatalf("%s: devices 0 and %d hold separate Le weights", name, i)
		}
	}
}

// within reports whether sub lies inside whole's storage: a slice of whole
// shares the end of its backing array, so their capacities give its offset.
func within(sub, whole []float32) bool {
	k := cap(whole) - cap(sub)
	return len(sub) > 0 && k >= 0 && k+len(sub) <= len(whole) && &whole[:cap(whole)][k] == &sub[0]
}

// NewFromModel refuses a nil model, one whose layers do not match its
// config and one whose weight storage does not cover a layer's shape.
func TestNewFromModelRejectsInconsistentModel(t *testing.T) {
	opts := Options{Geometry: smallGeometry()}
	if _, err := NewFromModel(nil, opts); err == nil {
		t.Fatal("accepted a nil model")
	}
	m := model.MustBuild(smallCfg("RMC1"))
	wider := *m
	wider.Cfg.Tables++
	if _, err := NewFromModel(&wider, opts); err == nil {
		t.Fatal("accepted top layers narrower than the config's top input")
	}
	shallow := *m
	shallow.Bottom = m.Bottom[:1]
	if _, err := NewFromModel(&shallow, opts); err == nil {
		t.Fatal("accepted a bottom tower missing a layer")
	}
	// Right shape, too little storage: refused here rather than
	// panicking inside a shard on the first InferBatch.
	truncated := *m
	truncated.Top = append([]model.Layer(nil), m.Top...)
	w := *m.Top[1].W
	w.Data = make([]float32, 10)
	truncated.Top[1].W = &w
	if _, err := NewFromModel(&truncated, opts); err == nil {
		t.Fatal("accepted a top layer whose weights do not cover its shape")
	}
}
