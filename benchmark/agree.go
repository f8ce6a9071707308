package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json strictly.
func loadSpec(path string) (spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return spec{}, err
	}
	defer f.Close() // read-only
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		return spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// readRuns collects the result lines of benchmark output, keyed by the
// workload named in the "== name" header printed above each.
func readRuns(path string) (map[string][]resultLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read-only
	runs := map[string][]resultLine{}
	cur := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "== "); ok {
			cur = name
			continue
		}
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var rl resultLine
		if err := json.Unmarshal([]byte(line), &rl); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if cur == "" {
			return nil, fmt.Errorf("%s: result line without a workload header", path)
		}
		runs[cur] = append(runs[cur], rl)
		cur = ""
	}
	return runs, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method); it sorts xs. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	q := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// agreeFiles applies BENCHMARK.json's end-to-end bounds to two sets of
// runs of the same code: for every workload and metric, the medians may
// differ by at most the bound, as a share of the first set's median. It
// prints each comparison and reports whether all agree.
func agreeFiles(specPath, pathA, pathB string) (bool, error) {
	s, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Printf("%-18s %-20s %12s %12s %12s | %12s %12s %12s | %8s %6s\n",
		"workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "diff", "bound")
	for _, wl := range s.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) < 2 || len(rb) < 2 {
			fmt.Printf("%-18s needs at least two runs in each set (have %d and %d)\n", wl.Name, len(ra), len(rb))
			ok = false
			continue
		}
		for _, m := range s.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if va == nil || vb == nil {
				fmt.Printf("%-18s %-20s missing from a run\n", wl.Name, m.Name)
				ok = false
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			diff := (b2 - a2) / a2
			verdict := "agree"
			if math.Abs(diff) > m.Bound || math.IsNaN(diff) {
				verdict = "DISAGREE"
				ok = false
			}
			fmt.Printf("%-18s %-20s %12.4f %12.4f %12.4f | %12.4f %12.4f %12.4f | %+7.2f%% %5.1f%% %s\n",
				wl.Name, m.Name, a1, a2, a3, b1, b2, b3, 100*diff, 100*m.Bound, verdict)
		}
	}
	if ok {
		fmt.Println("agree")
	} else {
		fmt.Println("disagree")
	}
	return ok, nil
}

// values returns metric name across runs, or nil if any run lacks it.
func values(runs []resultLine, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil
		}
		out = append(out, m.Value)
	}
	return out
}
