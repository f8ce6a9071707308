package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
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
	if _, err := defPool(t, s).Infer(3); err != nil {
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

// failingWriter is a ResponseWriter whose client went away mid-response.
type failingWriter struct{ http.ResponseWriter }

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("client went away") }

// TestMetricsWriteErrorLogged: a failed /metrics write is logged, as a
// failed JSON encode is, rather than dropped.
func TestMetricsWriteErrorLogged(t *testing.T) {
	s := testServer(t, 1)
	s.enableMetrics()
	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)
	s.handleMetrics(failingWriter{httptest.NewRecorder()}, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(buf.String(), "metrics: client went away") {
		t.Fatalf("write error not logged; log holds %q", buf.String())
	}
}

// TestCounterSurfacesAgree: every surface renders the same counters. After
// concurrent traffic on a plain, a cache+dedup, a faulty and an array-backed
// server, each device counter's /stats key, its rmssd_model_* mirror and
// the sum of its span-driven family over every shard and member device are
// equal, and the pool's served inferences (/models) equal the devices'
// (/stats and the device-inferences mirror).
func TestCounterSurfacesAgree(t *testing.T) {
	statsKey := map[string]string{ // span family -> /stats key
		"rmssd_device_lookups_total":          "lookups",
		"rmssd_device_dedup_hits_total":       "dedupHits",
		"rmssd_device_bytes_pooled_total":     "", // not on /stats
		"rmssd_evcache_hits_total":            "evCacheHits",
		"rmssd_evcache_misses_total":          "evCacheMisses",
		"rmssd_evcache_evictions_total":       "evCacheEvictions",
		"rmssd_flash_vector_reads_total":      "vectorReads",
		"rmssd_flash_page_reads_total":        "pageReads",
		"rmssd_flash_ecc_retries_total":       "eccRetries",
		"rmssd_flash_read_faults_total":       "readFaults",
		"rmssd_flash_uncorrectable_total":     "uncorrectable",
		"rmssd_flash_bytes_transferred_total": "bytesTransferred",
	}
	base := modelDecl{Model: "RMC1", TableMB: 16, Shards: 2, MaxBatch: 8, Queue: 64}
	cached, faulty, arrayed := base, base, base
	cached.EVCacheMB, cached.Dedup = 8, true
	faulty.FaultRate = 0.3
	arrayed.ArrayDevices, arrayed.Partition = 2, "hash"
	for _, tc := range []struct {
		name  string
		decl  modelDecl
		moved string // a /stats counter the traffic must move
	}{
		{"plain", base, "vectorReads"},
		{"cache+dedup", cached, "evCacheHits"},
		{"faults", faulty, "eccRetries"},
		{"array", arrayed, "lookups"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := serveDecls(t, 0, tc.decl)
			s.enableMetrics()
			mux := s.routes()
			get := func(path string) []byte {
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
				}
				return rec.Body.Bytes()
			}
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < 6; i++ {
						rec := httptest.NewRecorder()
						body := fmt.Sprintf(`{"batch":%d}`, 1+(c+i)%3)
						mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(body)))
						// An injected uncorrectable read answers 503.
						if rec.Code != http.StatusOK && rec.Code != http.StatusServiceUnavailable {
							t.Errorf("POST /infer: status %d: %s", rec.Code, rec.Body.String())
						}
						// Snapshots are read while other clients are served.
						path := [...]string{"/stats", "/models", "/metrics"}[(c+i)%3]
						rec = httptest.NewRecorder()
						mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
						if rec.Code != http.StatusOK {
							t.Errorf("GET %s: status %d", path, rec.Code)
						}
					}
				}(c)
			}
			wg.Wait()

			var stats map[string]interface{}
			if err := json.Unmarshal(get("/stats"), &stats); err != nil {
				t.Fatal(err)
			}
			var models struct {
				Models []struct {
					Inferences int64 `json:"inferences"`
				} `json:"models"`
			}
			if err := json.Unmarshal(get("/models"), &models); err != nil {
				t.Fatal(err)
			}
			metrics := string(get("/metrics"))
			statsInt := func(key string) int64 {
				v, ok := stats[key].(float64)
				if !ok {
					t.Fatalf("/stats lacks %q", key)
				}
				return int64(v)
			}
			checked := 0
			obs.Counters{}.Each(func(name obs.CounterName, _ int64) {
				key, ok := statsKey[name.Family]
				if !ok {
					t.Fatalf("no /stats key listed for %s", name.Family)
				}
				span, mirror := sumFamily(t, metrics, name.Family), sumFamily(t, metrics, name.Mirror)
				if span != mirror {
					t.Errorf("%s: spans sum to %d, mirror %s is %d", name.Family, span, name.Mirror, mirror)
				}
				if key != "" && statsInt(key) != mirror {
					t.Errorf("%s: /stats %s is %d, mirror %d", name.Mirror, key, statsInt(key), mirror)
				}
				checked++
			})
			if checked != len(statsKey) {
				t.Fatalf("checked %d counters, listed %d", checked, len(statsKey))
			}
			if statsInt(tc.moved) == 0 {
				t.Fatalf("traffic did not move %s", tc.moved)
			}
			inferences := statsInt("inferences")
			if len(models.Models) != 1 || models.Models[0].Inferences != inferences {
				t.Errorf("/models reports %+v served inferences, /stats %d", models.Models, inferences)
			}
			if dev := sumFamily(t, metrics, "rmssd_model_device_inferences_total"); dev != inferences {
				t.Errorf("device-inferences mirror %d, /stats %d", dev, inferences)
			}
		})
	}
}

// sumFamily sums every series of the named counter family in a Prometheus
// text exposition; an absent family sums to 0.
func sumFamily(t *testing.T, text, family string) int64 {
	t.Helper()
	var sum int64
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		series := line[:sp]
		if name, _, _ := strings.Cut(series, "{"); name != family {
			continue
		}
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("series %s: %v", series, err)
		}
		sum += v
	}
	return sum
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
