package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quartiles must match Python's statistics.quantiles(xs, n=4), the
// definition the spreads of this benchmark are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75}, // extrapolated, as Python does
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles %v = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// -agree compares the medians of two sets of runs per workload and metric
// against the declared bounds.
func TestAgreeFiles(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	write := func(name, text string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	write("BENCHMARK.json", `{"command":["bash","b/run.sh"],"paths":["b"],"run_seconds":5,
		"workloads":[{"name":"w1","why":"one"},{"name":"w2","why":"two"}],
		"end_to_end":[{"name":"lat_ms","unit":"ms","better":"lower","bound":0.1}],
		"per_layer":[{"name":"x","unit":"count","better":"lower"}]}`)
	runs := func(values map[string][]float64) string {
		var sb strings.Builder
		for _, w := range []string{"w1", "w2"} {
			for _, v := range values[w] {
				fmt.Fprintf(&sb, "== %s\n  lat_ms %v ms\n", w, v)
				fmt.Fprintf(&sb, `{"correct":true,"attempted":1,"failed":0,"metrics":{"lat_ms":{"value":%v,"unit":"ms"}}}`+"\n", v)
			}
		}
		return sb.String()
	}
	a := write("a.txt", runs(map[string][]float64{"w1": {10, 11, 9}, "w2": {5, 5.1, 4.9}}))
	b := write("b.txt", runs(map[string][]float64{"w1": {10.5, 9.8, 10.2}, "w2": {5.2, 5, 5.1}}))
	c := write("c.txt", runs(map[string][]float64{"w1": {12, 12.5, 11.9}, "w2": {5, 5, 5}}))
	if ok, err := agreeFiles(spec, a, b); err != nil || !ok {
		t.Errorf("a vs b: agree=%v err=%v, want agreement", ok, err)
	}
	if ok, err := agreeFiles(spec, a, c); err != nil || ok {
		t.Errorf("a vs c: agree=%v err=%v, want w1 to disagree by 20%%", ok, err)
	}
	orphan := write("orphan.txt", `{"correct":true,"attempted":1,"failed":0,"metrics":{}}`+"\n")
	if _, err := agreeFiles(spec, a, orphan); err == nil {
		t.Error("a result line without a workload header was accepted")
	}
}
