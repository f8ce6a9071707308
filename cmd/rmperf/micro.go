package main

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"rmssd/internal/evcache"
	"rmssd/internal/perfcase"
)

// baseResidentBytes is the heap a full churned 8 MiB EV cache of 128-byte
// vectors retained per resident entry while a Go map indexed the slab.
const baseResidentBytes = 213.4

// MicroStat is one perf case's per-op numbers next to its frozen baseline.
type MicroStat struct {
	NsPerOp        float64 `json:"ns_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	BaselineNs     float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocs int64   `json:"baseline_allocs_per_op,omitempty"`
	BaselineBytes  int64   `json:"baseline_bytes_per_op,omitempty"`
}

// runMicro times every case in-process via testing.Benchmark, so rmperf
// needs no `go test` invocation, and keys each case's MicroStat by its
// name. Beside them it reports the GC pause accumulated over the whole
// table (host wall-clock; simulated time is not involved) and the heap a
// full EV cache retains per resident entry. testing.Benchmark reports a
// failed case only as a zero-iteration result, so runMicro returns an
// error naming every such case.
func runMicro(cases []perfcase.Case) (map[string]any, error) {
	rep := make(map[string]any, len(cases)+3)
	var failed []string
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range cases {
		r := testing.Benchmark(c.Bench)
		if r.N == 0 {
			failed = append(failed, c.Name)
			continue
		}
		rep[c.Name] = MicroStat{
			NsPerOp:        float64(r.NsPerOp()),
			AllocsPerOp:    r.AllocsPerOp(),
			BytesPerOp:     r.AllocedBytesPerOp(),
			BaselineNs:     c.Baseline.NsPerOp,
			BaselineAllocs: c.Baseline.AllocsPerOp,
			BaselineBytes:  c.Baseline.BytesPerOp,
		}
	}
	runtime.ReadMemStats(&after)
	rep["gc_pause_total_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	rep["evcache_resident_bytes_per_entry"] = residentBytesPerEntry(8<<20, 128)
	rep["baseline_evcache_resident_bytes_per_entry"] = baseResidentBytes
	if len(failed) > 0 {
		return nil, fmt.Errorf("rmperf: perf case(s) failed: %s (run `go test -run=TestCeilings ./internal/perfcase/` for their output)", strings.Join(failed, ", "))
	}
	return rep, nil
}

// residentBytesPerEntry fills a New(budget, evSize) EV cache, churns three
// times its capacity of distinct keys through it, and returns the heap it
// retains per resident entry after a GC: slot and index together (the
// cache keeps no vector bytes). Mirrors internal/evcache's
// TestResidentFootprint, which bounds the same figure.
func residentBytesPerEntry(budget int64, evSize int) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := evcache.New(budget, evSize)
	for r := range 3 * c.CapEntries() {
		c.Fill(c.Reserve(0, int64(r)))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(c.Len())
}
