package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"rmssd/internal/engine"
	"rmssd/internal/flash"
	"rmssd/internal/model"
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

func TestTimingPathAgreesWithDataPath(t *testing.T) {
	a := newSmall(t, "RMC1", engine.DesignSearched)
	b := newSmall(t, "RMC1", engine.DesignSearched)
	denses, sparses := genInputs(a, 2, 9)
	_, doneA, bdA, errA := a.InferBatch(0, denses, sparses)
	doneB, bdB, errB := b.InferBatchTiming(0, sparses)
	if errA != nil || errB != nil {
		t.Fatalf("infer errs: %v, %v", errA, errB)
	}
	if doneA != doneB || bdA != bdB {
		t.Fatalf("paths diverge: %v/%v vs %v/%v", doneA, bdA, doneB, bdB)
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

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Geometry.Channels != params.NumChannels || o.Part.Name != "XCVU9P" || o.ExtentBytes != 1<<20 {
		t.Fatalf("defaults = %+v", o)
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
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on invalid config")
		}
	}()
	MustNew(bad, Options{Geometry: smallGeometry()})
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
	before, _, perr := r.Lookup().Pool(0, sparses[0])
	if perr != nil {
		t.Fatal(perr)
	}

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
	after, _, perr2 := r.Lookup().Pool(done, sparses[0])
	if perr2 != nil {
		t.Fatal(perr2)
	}

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
