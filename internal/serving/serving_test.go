package serving

import (
	"reflect"
	"testing"
	"time"

	"rmssd/internal/sim"
)

// stageMeta is batch metadata reporting pipeline stages, the way
// core.Breakdown does for a device batch.
type stageMeta []sim.Stage

func (m stageMeta) Stages() []sim.Stage { return m }

// stagedBatcher is a timing-only device whose batch of n occupies four
// pipeline stages, each growing with n; serial ignores the stages and
// reports only the batch latency, as a backend without a breakdown does.
type stagedBatcher struct {
	send, emb, top, read time.Duration // per inference
	serial               bool
}

func (b stagedBatcher) ServeBatch(reqs []Request) BatchResult {
	n := time.Duration(CountOf(reqs))
	st := stageMeta{
		{Name: "send", Time: n * b.send},
		{Name: "emb", Time: n * b.emb},
		{Name: "top", Time: n * b.top},
		{Name: "read", Time: n * b.read},
	}
	res := BatchResult{Latency: sim.Serial(st...)}
	if !b.serial {
		res.Meta = st
	}
	return res
}

// embBound is an embedding-bound device: 16us of stages per inference, of
// which the emb stage is the 10us bottleneck.
var embBound = stagedBatcher{send: 2 * time.Microsecond, emb: 10 * time.Microsecond,
	top: 3 * time.Microsecond, read: time.Microsecond}

func baseCfg() ReplayConfig {
	return ReplayConfig{Rate: 20000, MaxBatch: 8, Requests: 2000, Seed: 1}
}

// mustReplay replays count-only requests of one inference through b.
func mustReplay(t *testing.T, b Batcher, cfg ReplayConfig) ReplayResult {
	t.Helper()
	res, err := Replay([]Batcher{b}, cfg, CountSource(1))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidate(t *testing.T) {
	good := baseCfg()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*ReplayConfig){
		func(c *ReplayConfig) { c.Rate = 0 },
		func(c *ReplayConfig) { c.MaxBatch = 0 },
		func(c *ReplayConfig) { c.Requests = -1 },
	}
	for i, mutate := range bad {
		c := baseCfg()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("case %d should fail", i)
		}
		if _, err := Replay([]Batcher{embBound}, c, &sliceSource{reqs: []Request{{N: 1}}}); err == nil {
			t.Errorf("case %d: Replay must validate", i)
		}
	}
}

func TestUnderloadLatencyNearService(t *testing.T) {
	// Offered load far below capacity: batches rarely wait, so the median
	// request takes about one batch of one and everything gets served.
	cfg := baseCfg()
	cfg.Rate = 5000 // the emb stage supports 100K inferences/s
	res := mustReplay(t, embBound, cfg)
	if res.Requests != cfg.Requests || res.Inferences != cfg.Requests {
		t.Fatalf("served %d/%d of %d", res.Requests, res.Inferences, cfg.Requests)
	}
	if res.P50 < 16*time.Microsecond || res.P50 > 40*time.Microsecond {
		t.Fatalf("underloaded P50 = %v, want about one 16us batch", res.P50)
	}
	if res.P99 < res.P50 || res.Max < res.P99 {
		t.Fatal("percentiles not ordered")
	}
}

func TestOverloadLatencyExplodes(t *testing.T) {
	// Offered load beyond capacity: queueing delay grows without bound, so
	// P99 must vastly exceed the underloaded P99 while throughput
	// saturates at the bottleneck stage's rate.
	low := baseCfg()
	low.Rate = 5000
	high := baseCfg()
	high.Rate = 400000 // 4x the emb stage's 100K inferences/s
	lo, hi := mustReplay(t, embBound, low), mustReplay(t, embBound, high)
	if hi.P99 < 10*lo.P99 {
		t.Fatalf("overload P99 (%v) should dwarf underload P99 (%v)", hi.P99, lo.P99)
	}
	if hi.ThroughputQPS > 100000*1.01 {
		t.Fatalf("throughput %.0f exceeds the bottleneck stage's 100000", hi.ThroughputQPS)
	}
}

func TestBatchingGrowsUnderLoad(t *testing.T) {
	lowCfg := baseCfg()
	lowCfg.Rate = 5000
	highCfg := baseCfg()
	highCfg.Rate = 400000
	low, high := mustReplay(t, embBound, lowCfg), mustReplay(t, embBound, highCfg)
	if high.MeanBatch <= low.MeanBatch {
		t.Fatalf("mean batch should grow with load: %v -> %v", low.MeanBatch, high.MeanBatch)
	}
	if high.MeanBatch > float64(highCfg.MaxBatch) {
		t.Fatalf("mean batch %v exceeds cap %d", high.MeanBatch, highCfg.MaxBatch)
	}
}

func TestDeterminism(t *testing.T) {
	a, b := mustReplay(t, embBound, baseCfg()), mustReplay(t, embBound, baseCfg())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestSeedChangesArrivals(t *testing.T) {
	cfg2 := baseCfg()
	cfg2.Seed = 2
	if a, b := mustReplay(t, embBound, baseCfg()), mustReplay(t, embBound, cfg2); a.Elapsed == b.Elapsed {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestMaxBatchOne(t *testing.T) {
	cfg := baseCfg()
	cfg.MaxBatch = 1
	if res := mustReplay(t, embBound, cfg); res.MeanBatch != 1 {
		t.Fatalf("MeanBatch = %v with MaxBatch 1", res.MeanBatch)
	}
}

// TestMetaStagesAdapter: batch metadata that reports stages pipelines
// consecutive batches, and metadata that does not is one stage of the
// batch latency. Saturated at batch 1, the staged device completes a batch
// every bottleneck interval (10us) after the first batch's 16us; the
// serial one every 16us.
func TestMetaStagesAdapter(t *testing.T) {
	cfg := ReplayConfig{Rate: 1e12, MaxBatch: 1, Requests: 100, Seed: 1}
	piped := mustReplay(t, embBound, cfg)
	serialDev := embBound
	serialDev.serial = true
	serial := mustReplay(t, serialDev, cfg)
	const slack = time.Microsecond // the arrivals span well under 1us
	if want := 99*10*time.Microsecond + 16*time.Microsecond; piped.Elapsed < want || piped.Elapsed > want+slack {
		t.Fatalf("pipelined makespan %v, want %v (sim.Pipeline interval)", piped.Elapsed, want)
	}
	if want := 100 * 16 * time.Microsecond; serial.Elapsed < want || serial.Elapsed > want+slack {
		t.Fatalf("serial makespan %v, want %v (sim.Serial)", serial.Elapsed, want)
	}
}
