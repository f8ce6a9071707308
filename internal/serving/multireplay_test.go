package serving

import (
	"io"
	"reflect"
	"testing"
)

// taggedSlice replays a pre-collected tagged request slice.
type taggedSlice struct {
	reqs []TaggedRequest
	i    int
}

func (s *taggedSlice) Next() (TaggedRequest, error) {
	if s.i >= len(s.reqs) {
		return TaggedRequest{}, io.EOF
	}
	r := s.reqs[s.i]
	s.i++
	return r, nil
}

// mixedTrace draws a deterministic two-model tagged stream from generator
// sources via the interleaved source.
func mixedTrace(t *testing.T, n int) []TaggedRequest {
	t.Helper()
	src, err := NewInterleavedSource([]TaggedPart{
		{Model: "ctr", Source: genSource(t, 7), Weight: 2},
		{Model: "ranker", Source: genSource(t, 8), Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]TaggedRequest, 0, n)
	for i := 0; i < n; i++ {
		tr, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, tr)
	}
	return reqs
}

func twoModels() []ReplayModel {
	return []ReplayModel{
		{Name: "ctr", Backends: []Batcher{&replayBatcher{}, &replayBatcher{}}, MaxBatch: 8},
		{Name: "ranker", Backends: []Batcher{&replayBatcher{}}, MaxBatch: 4},
	}
}

func TestMultiReplayDeterministic(t *testing.T) {
	reqs := mixedTrace(t, 300)
	run := func() MultiReplayResult {
		res, err := MultiReplay(twoModels(), MultiReplayConfig{
			Rate: 150000, Seed: 42,
		}, &taggedSlice{reqs: reqs})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("mixed replay not deterministic:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(a.Models, []string{"ctr", "ranker"}) {
		t.Fatalf("models = %v", a.Models)
	}
	// Weight 2:1 interleave over 300 requests.
	if a.PerModel["ctr"].Requests != 200 || a.PerModel["ranker"].Requests != 100 {
		t.Fatalf("per-model requests = %d/%d",
			a.PerModel["ctr"].Requests, a.PerModel["ranker"].Requests)
	}
	if a.Requests != 300 || a.Inferences != 300 {
		t.Fatalf("aggregate = %+v", a)
	}
	if a.Batches != a.PerModel["ctr"].Batches+a.PerModel["ranker"].Batches {
		t.Fatalf("batch sum mismatch: %+v", a)
	}
	for name, r := range a.PerModel {
		if r.PredCheck == 0 {
			t.Fatalf("model %q: no prediction checksum", name)
		}
	}
}

// TestMultiReplaySoloIdentity pins the isolation guarantee: each model's
// mixed-replay result is byte-identical to replaying its subsequence alone
// through its own pool with the derived seed. Adding a second model to a
// host must never change the first model's simulated numbers.
func TestMultiReplaySoloIdentity(t *testing.T) {
	reqs := mixedTrace(t, 240)
	const seed = 99
	mixed, err := MultiReplay(twoModels(), MultiReplayConfig{
		Rate: 120000, Seed: seed,
	}, &taggedSlice{reqs: reqs})
	if err != nil {
		t.Fatal(err)
	}

	// Partition the trace by hand, preserving subsequences.
	subseq := map[string][]Request{}
	for _, tr := range reqs {
		subseq[tr.Model] = append(subseq[tr.Model], tr.Req)
	}
	for _, m := range twoModels() {
		solo, err := Replay(m.Backends, ReplayConfig{
			Rate:     120000,
			MaxBatch: m.MaxBatch,
			Requests: len(subseq[m.Name]),
			Seed:     ModelReplaySeed(seed, m.Name),
		}, &sliceSource{reqs: subseq[m.Name]})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mixed.PerModel[m.Name], solo) {
			t.Fatalf("model %q mixed != solo:\nmixed %+v\nsolo  %+v",
				m.Name, mixed.PerModel[m.Name], solo)
		}
	}
}

func TestMultiReplayRequestBound(t *testing.T) {
	reqs := mixedTrace(t, 300)
	res, err := MultiReplay(twoModels(), MultiReplayConfig{
		Rate: 100000, Requests: 90, Seed: 1,
	}, &taggedSlice{reqs: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 90 {
		t.Fatalf("bound ignored: %d requests", res.Requests)
	}
	if res.PerModel["ctr"].Requests != 60 || res.PerModel["ranker"].Requests != 30 {
		t.Fatalf("per-model = %d/%d",
			res.PerModel["ctr"].Requests, res.PerModel["ranker"].Requests)
	}
}

func TestMultiReplayOmitsIdleModels(t *testing.T) {
	reqs := []TaggedRequest{{Model: "ctr", Req: Request{N: 1}}, {Model: "ctr", Req: Request{N: 2}}}
	res, err := MultiReplay(twoModels(), MultiReplayConfig{Rate: 1000, Seed: 1},
		&taggedSlice{reqs: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Models, []string{"ctr"}) {
		t.Fatalf("idle model not omitted: %v", res.Models)
	}
	if _, ok := res.PerModel["ranker"]; ok {
		t.Fatal("idle model has a result")
	}
}

func TestMultiReplayErrors(t *testing.T) {
	good := []TaggedRequest{{Model: "ctr", Req: Request{N: 1}}}
	cfg := MultiReplayConfig{Rate: 1000, Seed: 1}

	if _, err := MultiReplay(nil, cfg, &taggedSlice{reqs: good}); err == nil {
		t.Fatal("no models must error")
	}
	if _, err := MultiReplay(twoModels(), MultiReplayConfig{Rate: 0}, &taggedSlice{reqs: good}); err == nil {
		t.Fatal("zero rate must error")
	}
	if _, err := MultiReplay(twoModels(), MultiReplayConfig{Rate: 1, Requests: -1}, &taggedSlice{reqs: good}); err == nil {
		t.Fatal("negative bound must error")
	}
	if _, err := MultiReplay(twoModels(), cfg, &taggedSlice{}); err == nil {
		t.Fatal("empty stream must error")
	}
	bad := []ReplayModel{{Name: "", Backends: []Batcher{&replayBatcher{}}, MaxBatch: 1}}
	if _, err := MultiReplay(bad, cfg, &taggedSlice{reqs: good}); err == nil {
		t.Fatal("nameless model must error")
	}
	bad = []ReplayModel{{Name: "ctr", MaxBatch: 1}}
	if _, err := MultiReplay(bad, cfg, &taggedSlice{reqs: good}); err == nil {
		t.Fatal("backend-less model must error")
	}
	bad = []ReplayModel{{Name: "ctr", Backends: []Batcher{&replayBatcher{}}, MaxBatch: 0}}
	if _, err := MultiReplay(bad, cfg, &taggedSlice{reqs: good}); err == nil {
		t.Fatal("zero max batch must error")
	}
	bad = append(twoModels(), ReplayModel{Name: "ctr", Backends: []Batcher{&replayBatcher{}}, MaxBatch: 1})
	if _, err := MultiReplay(bad, cfg, &taggedSlice{reqs: good}); err == nil {
		t.Fatal("duplicate model must error")
	}
	unknown := []TaggedRequest{{Model: "mystery", Req: Request{N: 1}}}
	if _, err := MultiReplay(twoModels(), cfg, &taggedSlice{reqs: unknown}); err == nil {
		t.Fatal("unknown tag must error")
	}
	invalid := []TaggedRequest{{Model: "ctr", Req: Request{N: -2}}}
	if _, err := MultiReplay(twoModels(), cfg, &taggedSlice{reqs: invalid}); err == nil {
		t.Fatal("invalid request must error")
	}
}

func TestModelReplaySeed(t *testing.T) {
	if ModelReplaySeed(1, "a") == ModelReplaySeed(1, "b") {
		t.Fatal("seed ignores model name")
	}
	if ModelReplaySeed(1, "a") == ModelReplaySeed(2, "a") {
		t.Fatal("seed ignores global seed")
	}
	if ModelReplaySeed(7, "ctr") != ModelReplaySeed(7, "ctr") {
		t.Fatal("seed not deterministic")
	}
}

// TestShardSeed: single-device shards keep base + s*stride, and array
// shards stride by their member count so that every member of every shard
// (array.New adds d*stride for member d) gets a seed of its own.
func TestShardSeed(t *testing.T) {
	for s := 0; s < 4; s++ {
		want := 7 + uint64(s)*seedStride
		if ShardSeed(7, s, 0) != want || ShardSeed(7, s, 1) != want {
			t.Fatalf("single-device shard %d: seeds %#x/%#x, want %#x", s, ShardSeed(7, s, 0), ShardSeed(7, s, 1), want)
		}
	}
	for n := 2; n <= 4; n++ {
		if ShardSeed(7, 0, n) != 7 {
			t.Fatalf("%d-member array: shard 0 seed %#x moved", n, ShardSeed(7, 0, n))
		}
		seen := map[uint64]bool{}
		for s := 0; s < 4; s++ {
			for d := 0; d < n; d++ {
				seed := ShardSeed(7, s, n) + uint64(d)*seedStride
				if seen[seed] {
					t.Fatalf("%d-member array: shard %d member %d reuses seed %#x", n, s, d, seed)
				}
				seen[seed] = true
			}
		}
	}
}

func TestInterleavedSourceWeights(t *testing.T) {
	mk := func(n int) *sliceSource {
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{N: 1}
		}
		return &sliceSource{reqs: reqs}
	}
	src, err := NewInterleavedSource([]TaggedPart{
		{Model: "a", Source: mk(6), Weight: 2},
		{Model: "b", Source: mk(3), Weight: 1},
		{Model: "c", Source: mk(2)}, // weight 0 counts as 1
	})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	counts := map[string]int{}
	for {
		tr, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, tr.Model)
		counts[tr.Model]++
	}
	if counts["a"] != 6 || counts["b"] != 3 || counts["c"] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	// Smooth WRR over weights 2:1:1 yields the cycle a,b,c,a — every part
	// appears inside any window of four, no part is bursted.
	want := []string{"a", "b", "c", "a", "a", "b", "c", "a"}
	if !reflect.DeepEqual(order[:len(want)], want) {
		t.Fatalf("order = %v", order)
	}
	// Exhausted source keeps returning EOF.
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("post-EOF err = %v", err)
	}
}

func TestInterleavedSourceErrors(t *testing.T) {
	ok := &sliceSource{reqs: []Request{{N: 1}}}
	cases := [][]TaggedPart{
		nil,
		{{Model: "", Source: ok}},
		{{Model: "a", Source: nil}},
		{{Model: "a", Source: ok, Weight: -1}},
		{{Model: "a", Source: ok}, {Model: "a", Source: ok}},
	}
	for i, parts := range cases {
		if _, err := NewInterleavedSource(parts); err == nil {
			t.Fatalf("case %d: invalid parts accepted", i)
		}
	}
}
