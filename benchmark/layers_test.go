package main

import (
	"math"
	"sort"
	"testing"
)

// The attribution table decides which layer each CPU sample is charged
// to; these frames pin the decisions the ledger's readings rest on.
func TestLayerAttributionPinnedFrames(t *testing.T) {
	cases := []struct {
		name   string
		stack  []string // innermost first
		main   string
		expect string
	}{
		{"hashing under content synthesis", []string{
			"rmssd/internal/tensor.Mix64",
			"rmssd/internal/tensor.HashFloat",
			"rmssd/internal/model.(*Model).EmbeddingValue",
			"rmssd/internal/model.(*Model).EVBytesInto",
			"rmssd/internal/embedding.(*Store).installFiller.func1",
			"rmssd/internal/flash.(*Array).ReadVector",
			"rmssd/internal/engine.(*LookupEngine).pool",
		}, "rmserve", "embedding"},
		{"MatVec under the MLP engine", []string{
			"rmssd/internal/tensor.(*Matrix).MatVec",
			"rmssd/internal/engine.(*FCLayer).Forward",
			"rmssd/internal/engine.(*MLPEngine).Forward",
			"rmssd/internal/core.(*RMSSD).InferBatch",
		}, "rmserve", "engine.mlp"},
		{"memmove under JSON decode", []string{
			"runtime.memmove",
			"encoding/json.(*decodeState).literalStore",
			"encoding/json.(*decodeState).array",
			"main.(*server).handleInfer",
			"net/http.(*conn).serve",
		}, "rmserve", "rmserve"},
		{"rmserve's shard adapter", []string{
			"main.(*deviceShard).ServeBatch",
			"rmssd/internal/serving.(*shard).callBatcher",
			"rmssd/internal/serving.(*shard).run",
		}, "rmserve", "serving.pool"},
		{"GC worker", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker",
			"runtime.goexit",
		}, "rmserve", "runtime"},
		{"unattributed", []string{"runtime.futex", "runtime.goexit"}, "rmserve", "runtime"},
		{"benchmark's replay adapter", []string{
			"runtime.mallocgc",
			"main.(*replayShard).ServeBatch",
			"rmssd/internal/serving.Replay",
		}, "serving.replay", "serving.replay"},
		{"replay percentiles are not tracing", []string{
			"sort.insertionSort",
			"rmssd/internal/obs.Quantiles",
			"rmssd/internal/serving.latencyQuantiles",
		}, "serving.replay", "serving.replay"},
	}
	for _, c := range cases {
		shares := attribute([][]string{c.stack}, []int64{3}, c.main)
		if shares[c.expect] != 1 {
			t.Errorf("%s: shares %v, want all of it on %s", c.name, shares, c.expect)
		}
	}

	stacks := make([][]string, len(cases))
	weights := make([]int64, len(cases))
	for i, c := range cases {
		stacks[i], weights[i] = c.stack, int64(i+1)
	}
	shares := attribute(stacks, weights, "rmserve")
	layers := make([]string, 0, len(shares))
	for l := range shares {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var sum float64
	for _, l := range layers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

// parseRaw reads the text `go tool pprof -raw` prints, including a
// location that carries inlined calls (one function per line, innermost
// first).
func TestParseRaw(t *testing.T) {
	raw := `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          3   30000000: 1 2
          1   10000000: 3 2
Locations
     1: 0x4d6722 M=1 rmssd/internal/tensor.Mix64 /src/rand.go:13:0 s=11
             rmssd/internal/model.(*Model).EmbeddingValue /src/model.go:387:0 s=386
     2: 0x4d67e4 M=1 main.(*deviceShard).ServeBatch /src/main.go:160:0 s=115
     3: 0x43ac2a M=1 runtime.gcBgMarkWorker /go/src/runtime/mgc.go:1400:0 s=1300
Mappings
1: 0x400000/0x4d7000/0x0 /bin/rmserve  [FN]
`
	stacks, weights, err := parseRaw(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 2 || weights[0] != 3 || weights[1] != 1 {
		t.Fatalf("stacks %v weights %v", stacks, weights)
	}
	want := []string{"rmssd/internal/tensor.Mix64", "rmssd/internal/model.(*Model).EmbeddingValue", "main.(*deviceShard).ServeBatch"}
	if len(stacks[0]) != len(want) {
		t.Fatalf("stack %v, want %v", stacks[0], want)
	}
	for i := range want {
		if stacks[0][i] != want[i] {
			t.Fatalf("stack %v, want %v", stacks[0], want)
		}
	}
	shares := attribute(stacks, weights, "rmserve")
	if shares["embedding"] != 0.75 || shares["runtime"] != 0.25 {
		t.Errorf("shares %v, want embedding 0.75, runtime 0.25", shares)
	}
	if _, _, err := parseRaw("Samples:\nLocations\n"); err == nil {
		t.Error("a profile without samples parsed")
	}
}
