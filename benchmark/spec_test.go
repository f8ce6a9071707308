package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// BENCHMARK.json must describe exactly the benchmark this package runs:
// its workloads, and the metric names and units it emits.
func TestBenchmarkJSONMatchesBenchmark(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "BENCHMARK.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, want at most 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	s, err := loadSpec(path) // strict: unknown keys fail
	if err != nil {
		t.Fatal(err)
	}

	if len(s.Paths) < 1 || len(s.Paths) > 16 {
		t.Errorf("%d paths", len(s.Paths))
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
		if st, err := os.Stat(filepath.Join(root, p)); err != nil || !st.IsDir() {
			t.Errorf("path %q is not a directory of the checkout", p)
		}
	}
	if len(s.Command) < 1 || len(s.Command) > 32 {
		t.Errorf("command has %d elements", len(s.Command))
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command element %q", c)
		}
		if _, err := os.Stat(filepath.Join(root, c)); err == nil && !underPaths(c, s.Paths) {
			t.Errorf("command names %q, outside the benchmark's paths", c)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}

	if len(s.Workloads) < 2 || len(s.Workloads) > 8 || len(s.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d run", len(s.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for i, wl := range s.Workloads {
		unique(wl.Name)
		if wl.Why == "" || len(wl.Why) > 200 || strings.ContainsAny(wl.Why, "\n\r") {
			t.Errorf("workload %q: why %q", wl.Name, wl.Why)
		}
		if i < len(workloads) && (workloads[i].name != wl.Name || workloads[i].why != wl.Why) {
			t.Errorf("workload %d is %q (%q) here, %q (%q) in BENCHMARK.json", i, workloads[i].name, workloads[i].why, wl.Name, wl.Why)
		}
	}

	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 || len(s.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics declared, %d emitted", len(s.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range s.EndToEnd {
		unique(m.Name)
		checkMetric(t, m.Name, m.Unit, m.Better, endToEnd, i)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be declared with the largest bound (%v < %v)", setupBound, maxBound)
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 || len(s.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics declared, %d emitted", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		unique(m.Name)
		checkMetric(t, m.Name, m.Unit, m.Better, perLayer, i)
	}
	if !bytes.HasSuffix(raw, []byte("\n")) {
		t.Error("BENCHMARK.json does not end with a newline")
	}
}

// checkMetric compares one declared metric with the i-th emitted one.
func checkMetric(t *testing.T, name, unit, better string, emitted []metricDef, i int) {
	t.Helper()
	if !unitRE.MatchString(unit) || (better != "higher" && better != "lower") {
		t.Errorf("%s: unit %q, better %q", name, unit, better)
	}
	if i >= len(emitted) || emitted[i] != (metricDef{name, unit, better}) {
		t.Errorf("declared metric %d is %s (%s, %s); the benchmark emits %+v", i, name, unit, better, emitted[min(i, len(emitted)-1)])
	}
}

// underPaths reports whether p lies in one of the benchmark's directories.
func underPaths(p string, paths []string) bool {
	for _, dir := range paths {
		if p == dir || strings.HasPrefix(p, strings.TrimSuffix(dir, "/")+"/") {
			return true
		}
	}
	return false
}
