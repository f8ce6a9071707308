package serving

import (
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"rmssd/internal/trace"
)

// replayBatcher is a deterministic timing backend: service time grows with
// batch size, and predictions encode each inference's first index so the
// checksum covers functional outputs.
type replayBatcher struct {
	calls int
}

func (b *replayBatcher) ServeBatch(reqs []Request) BatchResult {
	b.calls++
	n := CountOf(reqs)
	preds := make([]float32, 0, n)
	for _, r := range reqs {
		for i := 0; i < r.Count(); i++ {
			var v float32 = 0.5
			if r.Explicit() {
				v = float32(r.Sparse[i][0][0]%97) / 97
			}
			preds = append(preds, v)
		}
	}
	return BatchResult{Preds: preds, Latency: time.Duration(10+n) * time.Microsecond}
}

func genSource(t *testing.T, seed uint64) *GeneratorSource {
	t.Helper()
	gen, err := trace.NewGenerator(trace.Config{Tables: 2, Rows: 4096, Lookups: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewGeneratorSource(gen, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestReplayDeterministic(t *testing.T) {
	run := func(rate float64) ReplayResult {
		backends := []Batcher{&replayBatcher{}, &replayBatcher{}, &replayBatcher{}}
		res, err := Replay(backends, ReplayConfig{
			Rate: rate, MaxBatch: 8, Requests: 300, Seed: 42,
		}, genSource(t, 7))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(200000), run(200000)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Requests != 300 || a.Inferences != 300 {
		t.Fatalf("served %d/%d", a.Requests, a.Inferences)
	}
	if a.P50 <= 0 || a.P95 < a.P50 || a.P99 < a.P95 || a.Max < a.P99 {
		t.Fatalf("percentiles disordered: %+v", a)
	}
	if a.PredCheck == 0 {
		t.Fatal("no prediction checksum")
	}
	if len(a.PerShard) != 3 || a.PerShard[0]+a.PerShard[1]+a.PerShard[2] != 300 {
		t.Fatalf("per-shard = %v", a.PerShard)
	}
	// With every shard idle at each arrival, ties go to the shard whose
	// latest batch completed earliest, so the shards take requests in turn.
	idle := run(10)
	for _, n := range idle.PerShard {
		if n != 100 {
			t.Fatalf("idle shards did not take turns: %v", idle.PerShard)
		}
	}
}

func TestReplaySeedChangesTimeline(t *testing.T) {
	run := func(seed uint64) ReplayResult {
		res, err := Replay([]Batcher{&replayBatcher{}}, ReplayConfig{
			Rate: 200000, MaxBatch: 8, Requests: 200, Seed: seed,
		}, genSource(t, 7))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(1), run(2); a.Elapsed == b.Elapsed && a.P99 == b.P99 {
		t.Fatal("different arrival seeds produced identical timelines")
	}
}

// TestReplayCoalesces: at a rate far above device throughput, queued
// requests must ride shared batches bounded by MaxBatch.
func TestReplayCoalesces(t *testing.T) {
	rb := &replayBatcher{}
	res, err := Replay([]Batcher{rb}, ReplayConfig{
		Rate: 10e6, MaxBatch: 4, Requests: 100, Seed: 3,
	}, genSource(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Coalesced <= 1.5 {
		t.Fatalf("no coalescing under overload: %.2f requests/batch", res.Coalesced)
	}
	if res.MeanBatch > 4 {
		t.Fatalf("mean batch %.2f exceeds MaxBatch", res.MeanBatch)
	}
	if res.Batches != rb.calls {
		t.Fatalf("batches %d != backend calls %d", res.Batches, rb.calls)
	}
}

// TestReplayStopsAtSourceEOF: a finite source bounds the run even when
// Requests allows more.
func TestReplayStopsAtSourceEOF(t *testing.T) {
	src := &sliceSource{reqs: []Request{{N: 2}, {N: 3}}}
	res, err := Replay([]Batcher{&replayBatcher{}}, ReplayConfig{
		Rate: 1000, MaxBatch: 8, Seed: 1,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 2 || res.Inferences != 5 {
		t.Fatalf("res = %+v", res)
	}
}

func TestReplayErrors(t *testing.T) {
	src := &sliceSource{reqs: []Request{{N: 1}}}
	if _, err := Replay(nil, ReplayConfig{Rate: 1, MaxBatch: 1}, src); err == nil {
		t.Fatal("no backends must error")
	}
	if _, err := Replay([]Batcher{&replayBatcher{}}, ReplayConfig{Rate: 0, MaxBatch: 1}, src); err == nil {
		t.Fatal("zero rate must error")
	}
	empty := &sliceSource{}
	if _, err := Replay([]Batcher{&replayBatcher{}}, ReplayConfig{Rate: 1, MaxBatch: 1}, empty); err == nil {
		t.Fatal("empty source must error")
	}
	bad := &sliceSource{reqs: []Request{{N: -3}}}
	if _, err := Replay([]Batcher{&replayBatcher{}}, ReplayConfig{Rate: 1, MaxBatch: 1}, bad); err == nil {
		t.Fatal("invalid request must error")
	}
}

func TestGeneratorSource(t *testing.T) {
	src := genSource(t, 11)
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		req, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !req.Explicit() || req.Count() != 1 {
			t.Fatalf("req = %+v", req)
		}
		if len(req.Sparse[0]) != 2 || len(req.Sparse[0][0]) != 4 {
			t.Fatalf("sparse shape = %v", req.Sparse)
		}
		if len(req.Dense[0]) != 8 {
			t.Fatalf("dense dim = %d", len(req.Dense[0]))
		}
		key := ""
		for _, idx := range req.Sparse[0][0] {
			key += string(rune(idx%26 + 'a'))
		}
		seen[key] = true
	}
	if len(seen) < 2 {
		t.Fatal("generator source repeats one inference")
	}
	if _, err := NewGeneratorSource(nil, 0, 8); err == nil {
		t.Fatal("batch 0 must error")
	}
}

func TestCriteoSource(t *testing.T) {
	gen, err := trace.NewGenerator(trace.Config{Tables: 26, Rows: 1 << 16, Lookups: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	const records = 10
	if err := trace.SynthesizeCriteoTSV(&sb, records, gen); err != nil {
		t.Fatal(err)
	}

	const rows = 1 << 16
	p, err := trace.NewCriteoParser(strings.NewReader(sb.String()), rows)
	if err != nil {
		t.Fatal(err)
	}
	// 3 tables x 2 lookups: each inference consumes 2 records, so 10
	// records yield 5 inferences = 2 full batches of 2 + 1 partial.
	src, err := NewCriteoSource(p, 3, 2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var counts []int
	total := 0
	for {
		req, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, req.Count())
		total += req.Count()
		for i, inf := range req.Sparse {
			if len(inf) != 3 {
				t.Fatalf("inference %d: %d tables", i, len(inf))
			}
			for _, idx := range inf {
				if len(idx) != 2 {
					t.Fatalf("lookups = %v", idx)
				}
				for _, row := range idx {
					if row < 0 || row >= rows {
						t.Fatalf("row %d outside table", row)
					}
				}
			}
			if len(req.Dense[i]) != 4 {
				t.Fatalf("dense dim %d", len(req.Dense[i]))
			}
		}
	}
	if total != records/2 {
		t.Fatalf("served %d inferences from %d records, want %d", total, records, records/2)
	}
	if len(counts) != 3 || counts[0] != 2 || counts[1] != 2 || counts[2] != 1 {
		t.Fatalf("batch sizes = %v", counts)
	}
	// Exhausted source keeps returning EOF.
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("post-EOF err = %v", err)
	}
}
