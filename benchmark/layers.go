package main

import (
	"bufio"
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// layerRules attribute a profiled function to a layer of the stack, named
// after the modules that implement it. A sample belongs to the layer of its
// innermost frame that matches a rule; the first matching rule decides a
// frame. Frames no rule matches (the standard library, tensor and runtime
// helpers) are charged to their caller, and a sample with no matching frame
// at all is runtime overhead.
var layerRules = []struct{ prefix, layer string }{
	// Embedding content synthesis: the store's page filler and the model's
	// per-element hash (tensor hashing below it falls to these frames).
	{"rmssd/internal/embedding.", "embedding"},
	{"rmssd/internal/model.(*Model).EmbeddingValue", "embedding"},
	{"rmssd/internal/model.(*Model).EmbeddingVector", "embedding"},
	{"rmssd/internal/model.(*Model).EVBytes", "embedding"},

	{"rmssd/internal/tensor.(*Matrix).", "engine.mlp"},
	{"rmssd/internal/engine.(*MLPEngine).", "engine.mlp"},
	{"rmssd/internal/engine.(*FCLayer).", "engine.mlp"},
	{"rmssd/internal/model.Layer.", "engine.mlp"},
	{"rmssd/internal/engine.", "engine.lookup"},
	{"rmssd/internal/evcache.", "evcache"},

	{"rmssd/internal/flash.", "flash"},
	{"rmssd/internal/ssd.", "flash"},
	{"rmssd/internal/ftl.", "flash"},
	{"rmssd/internal/hostio.", "flash"},
	{"rmssd/internal/sim.", "flash"},

	{"rmssd/internal/core.", "core"},
	{"rmssd/internal/array.", "array"},

	// The replay's percentiles go through obs.Quantiles; they are replay
	// bookkeeping, not tracing.
	{"rmssd/internal/obs.Quantiles", "serving.replay"},
	{"rmssd/internal/obs.", "obs"},

	{"rmssd/internal/serving.(*Router).", "serving.router"},
	{"rmssd/internal/serving.(*Registry).", "serving.router"},
	{"rmssd/internal/serving.(*modelEntry).", "serving.router"},
	{"rmssd/internal/serving.(*wrrState).", "serving.router"},
	{"rmssd/internal/serving.Replay", "serving.replay"},
	{"rmssd/internal/serving.MultiReplay", "serving.replay"},
	{"rmssd/internal/serving.latencyQuantiles", "serving.replay"},
	{"rmssd/internal/serving.(*InterleavedSource).", "serving.replay"},
	{"rmssd/internal/serving.", "serving.pool"},

	// Both profiled programs are package main: rmserve's shard adapter is
	// the pool's backend, the benchmark's is the replay harness, and the
	// rest of each main is the program itself (mainLayer).
	{"main.(*deviceShard).", "serving.pool"},
	{"main.(*replayShard).", "serving.replay"},
	{"main.", "$main"},
	{"net/http.", "rmserve"},
	{"net.", "rmserve"},
	{"encoding/json.", "rmserve"},
	{"bufio.", "rmserve"},
	{"internal/poll.", "rmserve"},

	// Garbage collection and scheduling.
	{"runtime.gcBgMarkWorker", "runtime"},
	{"runtime.gcDrain", "runtime"},
	{"runtime.gcAssistAlloc", "runtime"},
	{"runtime.bgsweep", "runtime"},
	{"runtime.bgscavenge", "runtime"},
	{"runtime.findRunnable", "runtime"},
	{"runtime.schedule", "runtime"},
	{"runtime.sysmon", "runtime"},
}

// layerOf returns the layer a function belongs to.
func layerOf(fn, mainLayer string) (string, bool) {
	for _, r := range layerRules {
		if strings.HasPrefix(fn, r.prefix) {
			if r.layer == "$main" {
				return mainLayer, true
			}
			return r.layer, true
		}
	}
	return "", false
}

// attribute returns each layer's share of the samples. stacks list frames
// innermost first; weights are the samples' counts.
func attribute(stacks [][]string, weights []int64, mainLayer string) map[string]float64 {
	samples := map[string]int64{}
	var total int64
	for i, st := range stacks {
		layer := "runtime"
		for _, fn := range st {
			if l, ok := layerOf(fn, mainLayer); ok {
				layer = l
				break
			}
		}
		samples[layer] += weights[i]
		total += weights[i]
	}
	shares := make(map[string]float64, len(samples))
	for l, n := range samples {
		shares[l] = float64(n) / float64(total)
	}
	return shares
}

// parseRaw reads `go tool pprof -raw` output: the sample lines ("count
// value: loc loc ...", innermost location first) and the location table,
// where a location with inlined calls lists one function per line,
// innermost first.
func parseRaw(raw string) (stacks [][]string, weights []int64, err error) {
	type sample struct {
		count int64
		locs  []string
	}
	var samples []sample
	locs := map[string][]string{}
	var cur string
	section := ""
	sc := bufio.NewScanner(strings.NewReader(raw))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch trimmed {
		case "Samples:", "Locations", "Mappings":
			section = trimmed
			continue
		}
		switch section {
		case "Samples:":
			head, ids, ok := strings.Cut(trimmed, ":")
			if !ok {
				continue // the column header
			}
			f := strings.Fields(head)
			if len(f) == 0 {
				continue
			}
			n, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				continue // the column header
			}
			samples = append(samples, sample{count: n, locs: strings.Fields(ids)})
		case "Locations":
			f := strings.Fields(trimmed)
			if len(f) == 0 {
				continue
			}
			if id, ok := strings.CutSuffix(f[0], ":"); ok && len(f) >= 2 && strings.HasPrefix(f[1], "0x") {
				cur = id
				f = f[2:]
				for len(f) > 0 && (strings.HasPrefix(f[0], "M=") || f[0] == "[F]") {
					f = f[1:]
				}
			}
			if len(f) > 0 && cur != "" {
				locs[cur] = append(locs[cur], f[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(samples) == 0 {
		return nil, nil, fmt.Errorf("pprof: profile has no samples")
	}
	for _, s := range samples {
		var st []string
		for _, id := range s.locs {
			st = append(st, locs[id]...)
		}
		stacks = append(stacks, st)
		weights = append(weights, s.count)
	}
	return stacks, weights, nil
}

// profileShares attributes a CPU profile file to layers with the installed
// toolchain's pprof.
func profileShares(ctx context.Context, path, mainLayer string) (map[string]float64, error) {
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-raw", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -raw %s: %w", path, err)
	}
	stacks, weights, err := parseRaw(string(out))
	if err != nil {
		return nil, err
	}
	return attribute(stacks, weights, mainLayer), nil
}
