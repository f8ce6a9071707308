package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rmssd/internal/obs"
)

// TestMetricsDisabledByDefault: without -metrics the endpoint answers 404
// and the server carries no registry — the off state costs nothing.
func TestMetricsDisabledByDefault(t *testing.T) {
	s := testServer(t, 1)
	if s.metrics != nil {
		t.Fatal("registry allocated without -metrics")
	}
	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "-metrics") {
		t.Fatalf("404 body does not point at the flag: %s", rec.Body.String())
	}
}

// TestMetricsEndpoint: with metrics enabled, served traffic shows up both
// in the span-driven families and the scrape-time model mirrors, rendered
// as Prometheus text.
func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t, 2)
	s.enableMetrics()
	if _, err := s.def.pool.Infer(3); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE rmssd_batches_total counter",
		"# TYPE rmssd_stage_sim_seconds histogram",
		`rmssd_model_inferences_total{model="RMC1"} 3`,
		`le="+Inf"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics exposition lacks %q:\n%s", want, body)
		}
	}
	// Two scrapes with no traffic in between render identical bytes.
	rec2 := httptest.NewRecorder()
	s.handleMetrics(rec2, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if body != rec2.Body.String() {
		t.Fatal("idle rescrape changed the exposition bytes")
	}
}

// TestReplayReportTracedDifferential: tracing adds report sections and a
// JSONL artifact but never changes the replayed numbers, and the traced
// report is itself deterministic.
func TestReplayReportTracedDifferential(t *testing.T) {
	rc := replayConfig{Mode: "synthetic", Rate: 100000, Requests: 60, ReqBatch: 2, Seed: 5}
	run := func(traced bool, traceOut string) (string, string) {
		s := testServer(t, 2)
		c := rc
		if traced {
			c.Tracer = obs.NewTracer(obs.NewRegistry())
			c.TraceOut = traceOut
		}
		var sb strings.Builder
		if err := s.runReplay(c, &sb); err != nil {
			t.Fatal(err)
		}
		// Strip the wall-clock line: it is the one intentionally
		// host-dependent line of the report.
		var kept []string
		for _, line := range strings.Split(sb.String(), "\n") {
			if !strings.HasPrefix(line, "wall clock:") {
				kept = append(kept, line)
			}
		}
		report := strings.Join(kept, "\n")
		var trace string
		if traceOut != "" {
			b, err := os.ReadFile(traceOut)
			if err != nil {
				t.Fatal(err)
			}
			trace = string(b)
		}
		return report, trace
	}

	plain, _ := run(false, "")
	out1 := filepath.Join(t.TempDir(), "trace1.jsonl")
	out2 := filepath.Join(t.TempDir(), "trace2.jsonl")
	traced1, jsonl1 := run(true, out1)
	traced2, jsonl2 := run(true, out2)

	if traced1 != traced2 || jsonl1 != jsonl2 {
		t.Fatal("traced replay not byte-deterministic across reruns")
	}
	if !strings.Contains(traced1, "stages:") || !strings.Contains(traced1, "cycles") {
		t.Fatalf("traced report lacks the stage table:\n%s", traced1)
	}
	if strings.Contains(plain, "stages:") {
		t.Fatalf("untraced report gained a stage table:\n%s", plain)
	}
	// Every line of the untraced report reappears verbatim in the traced
	// one: tracing only appends.
	for _, line := range strings.Split(plain, "\n") {
		if line != "" && !strings.Contains(traced1, line) {
			t.Fatalf("traced report changed line %q:\n%s", line, traced1)
		}
	}
	lines := strings.Split(strings.TrimSpace(jsonl1), "\n")
	if len(lines) == 0 || !strings.Contains(lines[0], `"schema":1`) {
		t.Fatalf("trace artifact malformed:\n%s", jsonl1)
	}
}

// TestReplayTracerMatchesDirect: the replay numbers with a tracer attached
// equal the numbers without one (server-level differential, complementing
// the serving-layer suite).
func TestReplayTracerMatchesDirect(t *testing.T) {
	rc := replayConfig{Mode: "synthetic", Rate: 100000, Requests: 40, ReqBatch: 2, Seed: 7}
	s1 := testServer(t, 2)
	plain, err := s1.replay(rc)
	if err != nil {
		t.Fatal(err)
	}
	s2 := testServer(t, 2)
	c := rc
	c.Tracer = obs.NewTracer(obs.NewRegistry())
	traced, err := s2.replay(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracer perturbed the replay:\n%+v\n%+v", plain, traced)
	}
	if got := c.Tracer.Breakdown(s2.def.decl.Name).Requests; got != int64(traced.Requests) {
		t.Fatalf("trace saw %d requests, replay served %d", got, traced.Requests)
	}
}

// TestMountPprof: the -pprof mux exposes the index handler.
func TestMountPprof(t *testing.T) {
	mux := http.NewServeMux()
	mountPprof(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatal("pprof index missing profiles")
	}
}
