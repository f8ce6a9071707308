// Integration suite: the observability layer against the real device and
// serving stack. Three contracts are pinned here:
//
//  1. differential — attaching a tracer never changes any replayed number
//     (predictions, simulated times, counters) in any device configuration;
//  2. determinism — the emitted trace JSONL and the rendered metrics are
//     byte-identical across shard counts and reruns;
//  3. span properties — every emitted DeviceSpan satisfies the stage
//     accounting invariants, spans on one device never overlap, and the
//     replay's pipelined batch windows never put two batches in send, top
//     or read, nor more than sim.LaneDepth in emb.
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
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
	"rmssd/internal/trace"
)

// testBudget keeps the embedding tables small enough for fast tests.
const testBudget = 4 << 20

// recordingShard is a serving.DeviceShard over dev that records every
// served batch's stage breakdown, in service order.
type recordingShard struct {
	*serving.DeviceShard
	dev *core.RMSSD
	bds []core.Breakdown
}

func (r *recordingShard) ServeBatch(reqs []serving.Request) serving.BatchResult {
	res := r.DeviceShard.ServeBatch(reqs)
	bd, _ := res.Meta.(core.Breakdown)
	r.bds = append(r.bds, bd)
	return res
}

// obsConfig is one device configuration of the differential matrix.
type obsConfig struct {
	name string
	opts core.Options
}

// configMatrix spans the cache x dedup x fault feature space. The parallel
// configs set the deprecated core.Options.Parallel, which must change
// nothing.
func configMatrix() []obsConfig {
	return []obsConfig{
		{name: "plain", opts: core.Options{}},
		{name: "cache+dedup", opts: core.Options{
			EVCacheBytes: 1 << 20, DedupLookups: true,
		}},
		{name: "faults", opts: core.Options{
			FaultPlan: flash.FaultPlan{Rate: 0.2, Seed: 11},
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
	res, _ := replayDevices(t, cfg, oc, nshards, tr)
	return res
}

// replayDevices is replayOnce, also returning each shard's batcher.
func replayDevices(t *testing.T, cfg model.Config, oc obsConfig, nshards int, tr *obs.Tracer) (serving.ReplayResult, []*recordingShard) {
	t.Helper()
	m, err := model.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]serving.Batcher, 0, nshards)
	devs := make([]*recordingShard, 0, nshards)
	for i := 0; i < nshards; i++ {
		dev, err := core.NewFromModel(m, oc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			dev.SetSpanSink(tr.DeviceSink("m", i))
		}
		gen, err := trace.NewGenerator(trace.Config{
			Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups,
			Seed: serving.ShardSeed(3, i, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		db := &recordingShard{DeviceShard: serving.NewDeviceShard(dev, gen, cfg.DenseDim), dev: dev}
		backends = append(backends, db)
		devs = append(devs, db)
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
	return res, devs
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
// plus rendered metrics are byte-identical across reruns — virtual time is
// the only clock in the artifact.
func TestTraceDeterminism(t *testing.T) {
	cfg := model.RMC1()
	cfg.RowsPerTable = cfg.RowsForBudget(testBudget)
	for _, nshards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", nshards), func(t *testing.T) {
			run := func() (serving.ReplayResult, string) {
				tr := obs.NewTracer(obs.NewRegistry())
				res := replayOnce(t, cfg, obsConfig{}, nshards, tr)
				return res, artifact(t, tr)
			}
			res1, art1 := run()
			res2, art2 := run()
			if art1 != art2 {
				t.Fatal("rerun changed the trace/metrics bytes")
			}
			if !reflect.DeepEqual(res1, res2) {
				t.Fatal("rerun changed the replay result")
			}
		})
	}
}

// TestSpanInvariants: randomized direct batches against every matrix
// configuration; each emitted span validates, spans on one device are
// ordered and disjoint, the span covers exactly the simulated batch, and
// the spans' counters, failed batches included, add up to the device's.
// Beside the matrix, a fault rate high enough to exhaust the ECC retry
// budget makes some batches fail.
func TestSpanInvariants(t *testing.T) {
	cfg := model.RMC1()
	cfg.RowsPerTable = cfg.RowsForBudget(testBudget)
	uncorrectable := obsConfig{name: "uncorrectable", opts: core.Options{
		FaultPlan: flash.FaultPlan{Rate: 0.4, Seed: 3},
	}}
	for _, oc := range append(configMatrix(), uncorrectable) {
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
				// A failed batch still ran up to its failure, so the clock
				// advances either way, as in the serving shell.
				_, done, _, err := dev.InferBatch(now, denses, gen.Batch(n))
				if err == nil && done <= now {
					t.Fatalf("batch %d: virtual time did not advance", batches)
				}
				now = done
				batches++
			}
			if len(spans) != batches {
				t.Fatalf("%d spans for %d batches", len(spans), batches)
			}
			var sum obs.Counters
			failed := 0
			for i, sp := range spans {
				if err := sp.Validate(); err != nil {
					t.Fatalf("span %d: %v\n%+v", i, err, sp)
				}
				if i > 0 && sp.Start < spans[i-1].Done {
					t.Fatalf("span %d overlaps its predecessor: starts %v, previous done %v",
						i, sp.Start, spans[i-1].Done)
				}
				sum.Add(sp.Counters)
				if sp.Failed {
					failed++
				}
			}
			if got := dev.Counters(); !reflect.DeepEqual(sum, got) {
				t.Fatalf("spans (%d failed) sum to\n%+v\ndevice counts\n%+v", failed, sum, got)
			}
			if oc.opts.FaultPlan.Enabled() && sum.ECCRetries == 0 {
				t.Fatal("fault plan on, yet no span carries an ECC retry")
			}
			if oc.name == uncorrectable.name && (failed == 0 || failed == len(spans)) {
				t.Fatalf("%d of %d batches failed, want some but not all", failed, len(spans))
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
	res := replayOnce(t, cfg, obsConfig{}, 2, tr)

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
// a busy downstream stage or a busy die, so its device span, measured on
// the device's own clock, is never longer than the window — and exactly as
// long when its shard's previous batch had already completed by admission.
// Consecutive batches on one shard overlap in time (the shard pipelines
// them), yet send, top and read never hold two batches at once, emb never
// holds more than sim.LaneDepth (the EV Sum's buffer ring), counted from
// admission, and each die lane serves its batches in order without
// overlap.
func TestTraceSpansJoinBatches(t *testing.T) {
	const embDepth = sim.LaneDepth
	cfg := model.RMC1()
	cfg.RowsPerTable = cfg.RowsForBudget(testBudget)
	tr := obs.NewTracer(nil)
	_, devs := replayDevices(t, cfg, obsConfig{}, 2, tr)
	recs := tr.Records()
	if len(recs) == 0 {
		t.Fatal("no records traced")
	}
	overlapped, deep, laneWaits := 0, 0, 0
	var shardRecs []obs.BatchRecord // the current shard's records so far
	var shardBDs []core.Breakdown
	lastOnLane := map[int]int{} // die lane -> index in shardRecs of its latest user
	for _, rec := range recs {
		if rec.Device == nil {
			t.Fatalf("shard %d seq %d: batch has no device span", rec.Shard, rec.Seq)
		}
		if len(shardRecs) > 0 && shardRecs[0].Shard != rec.Shard {
			shardRecs, shardBDs = shardRecs[:0], shardBDs[:0]
			clear(lastOnLane)
		}
		// Records join the shard's batches in service order.
		bd := devs[rec.Shard].bds[len(shardRecs)]
		if bd.Send != rec.Device.Send.Len() || len(bd.Lanes) == 0 {
			t.Fatalf("shard %d seq %d: breakdown %v/%d lanes does not join span send %v",
				rec.Shard, rec.Seq, bd.Send, len(bd.Lanes), rec.Device.Send.Len())
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
		idle := len(shardRecs) == 0 || shardRecs[len(shardRecs)-1].Complete <= rec.Start
		if idle && span != window {
			t.Fatalf("shard %d seq %d: admitted to an idle shard yet waited: span %v, window %v",
				rec.Shard, rec.Seq, span, window)
		}
		e := stagesOf(*rec.Device)
		// held checks that a batch ahead, prev, had left stage k before rec
		// entered it: prev leaves stage k no earlier than its admission plus
		// its stages up to k, and rec still needs its stages from k on.
		held := func(prev obs.BatchRecord, k int) {
			d := stagesOf(*prev.Device)
			if k >= len(d) || k >= len(e) {
				return
			}
			var need time.Duration
			for _, x := range d[:k+1] {
				need += x
			}
			for _, x := range e[k:] {
				need += x
			}
			if got := rec.Complete - prev.Start; got < need {
				t.Fatalf("shard %d seq %d: stage %d held two batches: %v from admission of seq %d to completion, need %v",
					rec.Shard, rec.Seq, k, got, prev.Seq, need)
			}
		}
		if !idle {
			overlapped++
			prev := shardRecs[len(shardRecs)-1]
			for _, k := range []int{0, 2, 3} {
				held(prev, k)
			}
			if len(shardRecs) >= embDepth {
				// A batch claims its emb buffer when it is admitted: the
				// batch embDepth places ahead had left emb by then.
				ahead := shardRecs[len(shardRecs)-embDepth]
				if ahead.Complete > rec.Start {
					deep++
				}
				d := stagesOf(*ahead.Device)
				if left := ahead.Start + d[0] + d[1]; rec.Start < left {
					t.Fatalf("shard %d seq %d: admitted at %v, before seq %d could leave emb at %v",
						rec.Shard, rec.Seq, rec.Start, ahead.Seq, left)
				}
			}
		}
		// Each die lane is FIFO without overlap: rec's use of die lane l
		// starts after the lane's previous user finished with it, which is
		// no earlier than that user's emb entry plus its release and busy
		// time; rec then needs its own busy time, its tail after its last
		// lane, and its stages after emb.
		dies := dieLanes(devs[rec.Shard].dev)
		reach := time.Duration(0)
		for _, ld := range bd.Lanes {
			reach = max(reach, ld.Release+ld.Busy)
		}
		var after time.Duration
		for _, x := range e[2:] {
			after += x
		}
		for l, ld := range bd.Lanes[:dies] {
			if ld.Busy == 0 {
				continue
			}
			if j, ok := lastOnLane[l]; ok {
				prev, pl := shardRecs[j], shardBDs[j].Lanes[l]
				need := prev.Device.Send.Len() + pl.Release + pl.Busy + ld.Busy + (e[1] - reach) + after
				if got := rec.Complete - prev.Start; got < need {
					t.Fatalf("shard %d seq %d: die lane %d overlapped seq %d: %v from its admission to completion, need %v",
						rec.Shard, rec.Seq, l, prev.Seq, got, need)
				}
				if prev.Complete > rec.Start {
					laneWaits++
				}
			}
			lastOnLane[l] = len(shardRecs)
		}
		shardRecs = append(shardRecs, rec)
		shardBDs = append(shardBDs, bd)
	}
	t.Logf("%d records: %d admitted behind a busy batch, %d behind %d, %d die-lane waits", len(recs), overlapped, deep, embDepth, laneWaits)
	if overlapped == 0 || deep == 0 || laneWaits == 0 {
		t.Fatalf("overlapped %d, %d deep %d, lane waits %d: the replay did not pipeline its emb stage",
			overlapped, embDepth, deep, laneWaits)
	}
}

// dieLanes is how many of a device batch's lanes are flash dies.
func dieLanes(dev *core.RMSSD) int {
	g := dev.Device().Array().Geometry()
	return g.Channels * g.DiesPerChannel
}

// stagesOf reads a span's pipeline stage occupancies: send, emb∥bot, top
// and read for a served batch, send and emb for a failed one.
func stagesOf(sp obs.DeviceSpan) []time.Duration {
	if sp.Failed {
		return []time.Duration{sp.Send.Len(), sp.Emb.Len()}
	}
	return []time.Duration{sp.Send.Len(), sp.Top.From - sp.Emb.From, sp.Top.Len(), sp.Read.Len()}
}
