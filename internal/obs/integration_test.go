// Integration suite: the observability layer against the real device and
// serving stack. Three contracts are pinned here:
//
//  1. differential — attaching a tracer never changes any replayed number
//     (predictions, simulated times, counters) in any device configuration;
//  2. determinism — the emitted trace JSONL and the rendered metrics are
//     byte-identical across host parallelism and reruns;
//  3. span properties — every emitted DeviceSpan satisfies the stage
//     accounting invariants, spans on one device never overlap, and the
//     replay's pipelined batch windows never put two batches in one stage.
package obs_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"rmssd/internal/core"
	"rmssd/internal/flash"
	"rmssd/internal/model"
	"rmssd/internal/obs"
	"rmssd/internal/serving"
	"rmssd/internal/tensor"
	"rmssd/internal/trace"
)

// testBudget keeps the embedding tables small enough for fast tests.
const testBudget = 4 << 20

// deviceBatcher adapts one device to the serving layer (single-goroutine
// virtual clock, mirroring the conformance replay cases).
type deviceBatcher struct {
	dev *core.RMSSD
	gen *trace.Generator
	cfg model.Config
	now time.Duration
	seq int
}

func (d *deviceBatcher) ServeBatch(reqs []serving.Request) serving.BatchResult {
	n := serving.CountOf(reqs)
	denses := make([]tensor.Vector, 0, n)
	sparses := make([][][]int64, 0, n)
	for _, req := range reqs {
		if req.Explicit() {
			for i, sp := range req.Sparse {
				sparses = append(sparses, sp)
				if req.Dense != nil {
					denses = append(denses, req.Dense[i])
				} else {
					denses = append(denses, make(tensor.Vector, d.cfg.DenseDim))
				}
			}
			continue
		}
		for i := 0; i < req.N; i++ {
			denses = append(denses, d.gen.DenseInput(d.seq+i, d.cfg.DenseDim))
		}
		sparses = append(sparses, d.gen.Batch(req.N)...)
		d.seq += req.N
	}
	outs, done, bd, err := d.dev.InferBatch(d.now, denses, sparses)
	lat := done - d.now
	d.now = done
	return serving.BatchResult{Preds: outs, Latency: lat, Meta: bd, Err: err}
}

// obsConfig is one device configuration of the differential matrix.
type obsConfig struct {
	name     string
	opts     core.Options
	parallel int // serving-level device goroutines (core.Options.Parallel)
}

// configMatrix spans the cache x dedup x fault x parallel feature space.
func configMatrix() []obsConfig {
	return []obsConfig{
		{name: "plain", opts: core.Options{Parallel: 1}},
		{name: "cache+dedup", opts: core.Options{
			Parallel: 1, EVCacheBytes: 1 << 20, DedupLookups: true,
		}},
		{name: "faults", opts: core.Options{
			Parallel: 1, FaultPlan: flash.FaultPlan{Rate: 0.2, Seed: 11},
		}},
		{name: "parallel", opts: core.Options{Parallel: 2}},
		{name: "cache+faults+parallel", opts: core.Options{
			Parallel: 2, EVCacheBytes: 1 << 20, DedupLookups: true,
			FaultPlan: flash.FaultPlan{Rate: 0.1, Seed: 7},
		}},
	}
}

// replayOnce runs one deterministic replay over nshards fresh devices. A
// non-nil tracer gets a DeviceSink installed per shard under model "m".
func replayOnce(t *testing.T, cfg model.Config, oc obsConfig, nshards int, tr *obs.Tracer) serving.ReplayResult {
	t.Helper()
	backends := make([]serving.Batcher, 0, nshards)
	for i := 0; i < nshards; i++ {
		dev, err := core.New(cfg, oc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			dev.SetSpanSink(tr.DeviceSink("m", i))
		}
		gen, err := trace.NewGenerator(trace.Config{
			Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups,
			Seed: 3 + uint64(i)*0x9e37,
		})
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, &deviceBatcher{dev: dev, gen: gen, cfg: cfg})
	}
	gen, err := trace.NewGenerator(trace.Config{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := serving.NewGeneratorSource(gen, 2, cfg.DenseDim)
	if err != nil {
		t.Fatal(err)
	}
	res, err := serving.Replay(backends, serving.ReplayConfig{
		Rate: 150000, MaxBatch: 8, Requests: 60, Seed: 4,
		Tracer: tr, TraceModel: "m",
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// artifact renders a tracer's complete deterministic output.
func artifact(t *testing.T, tr *obs.Tracer) string {
	t.Helper()
	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	sb.WriteString(tr.Registry().RenderPrometheus())
	return sb.String()
}

// TestTracingDifferential: for every configuration in the matrix, a traced
// replay returns exactly the result of the untraced replay — tracing
// observes, never perturbs.
func TestTracingDifferential(t *testing.T) {
	cfg := model.RMC1()
	cfg.RowsPerTable = cfg.RowsForBudget(testBudget)
	for _, oc := range configMatrix() {
		t.Run(oc.name, func(t *testing.T) {
			plain := replayOnce(t, cfg, oc, 2, nil)
			tr := obs.NewTracer(obs.NewRegistry())
			traced := replayOnce(t, cfg, oc, 2, tr)
			if !reflect.DeepEqual(plain, traced) {
				t.Fatalf("tracing perturbed the replay:\nplain:  %+v\ntraced: %+v", plain, traced)
			}
			if got := tr.Breakdown("m").Requests; got != int64(plain.Requests) {
				t.Fatalf("trace saw %d requests, replay served %d", got, plain.Requests)
			}
		})
	}
}

// TestTraceDeterminism: for each (config, shard count), the trace JSONL
// plus rendered metrics are byte-identical across reruns and across device
// host-parallelism — virtual time is the only clock in the artifact.
func TestTraceDeterminism(t *testing.T) {
	cfg := model.RMC1()
	cfg.RowsPerTable = cfg.RowsForBudget(testBudget)
	for _, nshards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", nshards), func(t *testing.T) {
			run := func(parallel int) (serving.ReplayResult, string) {
				oc := obsConfig{opts: core.Options{Parallel: parallel}}
				tr := obs.NewTracer(obs.NewRegistry())
				res := replayOnce(t, cfg, oc, nshards, tr)
				return res, artifact(t, tr)
			}
			res1, art1 := run(1)
			res2, art2 := run(1)
			if art1 != art2 {
				t.Fatal("rerun changed the trace/metrics bytes")
			}
			if !reflect.DeepEqual(res1, res2) {
				t.Fatal("rerun changed the replay result")
			}
			resN, artN := run(4)
			if art1 != artN {
				t.Fatal("device host-parallelism leaked into the trace/metrics bytes")
			}
			if !reflect.DeepEqual(res1, resN) {
				t.Fatal("device host-parallelism changed the replay result")
			}
		})
	}
}

// TestSpanInvariants: randomized direct batches against every matrix
// configuration; each emitted span validates, spans on one device are
// ordered and disjoint, and the span covers exactly the simulated batch.
func TestSpanInvariants(t *testing.T) {
	cfg := model.RMC1()
	cfg.RowsPerTable = cfg.RowsForBudget(testBudget)
	for _, oc := range configMatrix() {
		t.Run(oc.name, func(t *testing.T) {
			dev, err := core.New(cfg, oc.opts)
			if err != nil {
				t.Fatal(err)
			}
			var spans []obs.DeviceSpan
			dev.SetSpanSink(func(sp obs.DeviceSpan) { spans = append(spans, sp) })
			gen, err := trace.NewGenerator(trace.Config{
				Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 21,
			})
			if err != nil {
				t.Fatal(err)
			}
			var now time.Duration
			batches := 0
			for _, n := range []int{1, 3, 8, 2, 5, 1, 7, 4} { // randomized batch sizes, fixed seed
				denses := make([]tensor.Vector, n)
				for i := range denses {
					denses[i] = gen.DenseInput(batches*8+i, cfg.DenseDim)
				}
				_, done, _, err := dev.InferBatch(now, denses, gen.Batch(n))
				if err == nil && done <= now {
					t.Fatalf("batch %d: virtual time did not advance", batches)
				}
				if err == nil {
					now = done
				}
				batches++
			}
			if len(spans) != batches {
				t.Fatalf("%d spans for %d batches", len(spans), batches)
			}
			for i, sp := range spans {
				if err := sp.Validate(); err != nil {
					t.Fatalf("span %d: %v\n%+v", i, err, sp)
				}
				if i > 0 && sp.Start < spans[i-1].Done {
					t.Fatalf("span %d overlaps its predecessor: starts %v, previous done %v",
						i, sp.Start, spans[i-1].Done)
				}
			}
		})
	}
}

// TestPercentileHistogramAgree: the replay report's percentiles and the
// registry histogram are two views of the same samples — counts, sums and
// bucket placement must all line up (satellite fix: one quantile source).
func TestPercentileHistogramAgree(t *testing.T) {
	cfg := model.RMC1()
	cfg.RowsPerTable = cfg.RowsForBudget(testBudget)
	tr := obs.NewTracer(obs.NewRegistry())
	res := replayOnce(t, cfg, obsConfig{opts: core.Options{Parallel: 1}}, 2, tr)

	// Reconstruct the per-request latency samples from the trace.
	var lat []time.Duration
	var sum time.Duration
	for _, rec := range tr.Records() {
		for _, rq := range rec.Requests {
			d := rec.Complete - rq.Arrival
			lat = append(lat, d)
			sum += d
		}
	}
	if len(lat) != res.Requests {
		t.Fatalf("trace has %d request samples, replay served %d", len(lat), res.Requests)
	}

	// The report's percentiles are obs.Quantiles over these samples.
	p50, p95, p99, max := obs.Quantiles(lat)
	if p50 != res.P50 || p95 != res.P95 || p99 != res.P99 || max != res.Max {
		t.Fatalf("report percentiles diverge from trace samples:\nreport: %v %v %v %v\ntrace:  %v %v %v %v",
			res.P50, res.P95, res.P99, res.Max, p50, p95, p99, max)
	}

	// The histogram saw exactly the same samples.
	hist := tr.Registry().Histogram("rmssd_request_sim_latency_seconds", obs.L("model", "m"))
	if hist.Count() != int64(len(lat)) {
		t.Fatalf("histogram count %d != %d samples", hist.Count(), len(lat))
	}
	if hist.Sum() != sum {
		t.Fatalf("histogram sum %v != sample sum %v", hist.Sum(), sum)
	}
	// Each reported percentile falls inside the bucket the histogram files
	// it under — the two views can never disagree about an order statistic.
	for _, q := range []time.Duration{p50, p95, p99, max} {
		lo, hi, bounded := hist.BucketFor(q)
		if q <= lo || (bounded && q > hi) {
			t.Fatalf("percentile %v outside its bucket (%v, %v]", q, lo, hi)
		}
	}
}

// TestTraceSpansJoinBatches: every traced batch that reached the device
// carries a span whose request count matches the record. A record's window
// runs from admission (Start) to completion, and a batch may wait in it for
// a busy downstream stage, so its device span is never longer than the
// window — and exactly as long when its shard's previous batch had already
// completed by admission. Consecutive batches on one shard overlap in time
// (the shard pipelines them), yet no stage ever holds two batches at once.
func TestTraceSpansJoinBatches(t *testing.T) {
	cfg := model.RMC1()
	cfg.RowsPerTable = cfg.RowsForBudget(testBudget)
	tr := obs.NewTracer(nil)
	replayOnce(t, cfg, obsConfig{opts: core.Options{Parallel: 1}}, 2, tr)
	recs := tr.Records()
	if len(recs) == 0 {
		t.Fatal("no records traced")
	}
	overlapped := 0
	for i, rec := range recs {
		if rec.Device == nil {
			t.Fatalf("shard %d seq %d: batch has no device span", rec.Shard, rec.Seq)
		}
		n := 0
		for _, rq := range rec.Requests {
			n += rq.N
		}
		if rec.Device.N != n {
			t.Fatalf("shard %d seq %d: span covers %d inferences, requests carry %d",
				rec.Shard, rec.Seq, rec.Device.N, n)
		}
		if err := rec.Device.Validate(); err != nil {
			t.Fatalf("shard %d seq %d: %v", rec.Shard, rec.Seq, err)
		}
		span, window := rec.Device.Done-rec.Device.Start, rec.Complete-rec.Start
		if span > window {
			t.Fatalf("shard %d seq %d: span length %v exceeds batch window %v", rec.Shard, rec.Seq, span, window)
		}
		if i == 0 || recs[i-1].Shard != rec.Shard {
			if span != window {
				t.Fatalf("shard %d seq %d: first batch waited: span %v, window %v", rec.Shard, rec.Seq, span, window)
			}
			continue
		}
		prev := recs[i-1]
		if prev.Complete <= rec.Start {
			if span != window {
				t.Fatalf("shard %d seq %d: admitted to an idle shard yet waited: span %v, window %v",
					rec.Shard, rec.Seq, span, window)
			}
			continue
		}
		overlapped++
		// Batch prev leaves stage k no earlier than its admission plus its
		// stages up to k; rec can only enter stage k after that and still
		// needs its stages from k on. Any shortfall means one stage held
		// both batches at once.
		d, e := stagesOf(*prev.Device), stagesOf(*rec.Device)
		for k := 0; k < len(d) && k < len(e); k++ {
			var need time.Duration
			for _, x := range d[:k+1] {
				need += x
			}
			for _, x := range e[k:] {
				need += x
			}
			if got := rec.Complete - prev.Start; got < need {
				t.Fatalf("shard %d seq %d: stage %d held two batches: %v from prev admission to completion, need %v",
					rec.Shard, rec.Seq, k, got, need)
			}
		}
	}
	if overlapped == 0 {
		t.Fatal("no consecutive batches overlapped: the replay did not pipeline")
	}
}

// stagesOf reads a span's pipeline stage occupancies: send, emb∥bot, top
// and read for a served batch, send and emb for a failed one.
func stagesOf(sp obs.DeviceSpan) []time.Duration {
	if sp.Failed {
		return []time.Duration{sp.Send.Len(), sp.Emb.Len()}
	}
	return []time.Duration{sp.Send.Len(), sp.Top.From - sp.Emb.From, sp.Top.Len(), sp.Read.Len()}
}
