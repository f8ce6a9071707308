package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rmssd"
	"rmssd/internal/serving"
	"rmssd/internal/wire"
)

// serveDecls validates, builds and hosts decls exactly as rmserve does, at
// global seed 1 behind the given host budget.
func serveDecls(t *testing.T, budget int, decls ...wire.ModelDecl) *server {
	t.Helper()
	s, err := serveModels(wire.ModelsConfig{Models: decls}, 1, budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	return s
}

// defPool returns the default model's pool from the server's router.
func defPool(t *testing.T, s *server) *serving.Pool {
	t.Helper()
	p, err := s.router.Pool(s.def.decl.Name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// decodeReply decodes a recorded reply body into v.
func decodeReply(t *testing.T, rec *httptest.ResponseRecorder, v interface{}) {
	t.Helper()
	if err := json.NewDecoder(rec.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func testServer(t *testing.T, shards int) *server {
	t.Helper()
	return serveDecls(t, 0, wire.ModelDecl{Model: "RMC1", TableMB: 16, Shards: shards, MaxBatch: 8, Queue: 64})
}

func TestHandleInfo(t *testing.T) {
	s := testServer(t, 2)
	rec := httptest.NewRecorder()
	s.handleInfo(rec, httptest.NewRequest(http.MethodGet, "/info", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var body wire.Info
	decodeReply(t, rec, &body)
	if body.Model != "RMC1" || body.Tables != 8 {
		t.Fatalf("body = %+v", body)
	}
	if body.Shards != 2 {
		t.Fatalf("shards = %v", body.Shards)
	}

	// /info renders the default model's validated decl, every knob set.
	for _, s := range []*server{s, knobServer(t)} {
		rec := httptest.NewRecorder()
		s.handleInfo(rec, httptest.NewRequest(http.MethodGet, "/info", nil))
		var info wire.Info
		decodeReply(t, rec, &info)
		if info.ModelDecl != s.def.decl {
			t.Fatalf("/info decl %+v, hosted %+v", info.ModelDecl, s.def.decl)
		}
	}
}

// knobServer hosts one model with every declared knob away from its
// default, so endpoint round trips cover them all.
func knobServer(t *testing.T) *server {
	t.Helper()
	return serveDecls(t, 0, wire.ModelDecl{
		Name: "knobs", Model: "RMC2", TableMB: 8, Shards: 2, MaxBatch: 4, Queue: 32, Weight: 3,
		Seed: 1 << 63, EVCacheMB: 2, Dedup: true, FaultRate: 0.001, FaultSeed: 5,
		ArrayDevices: 2, Partition: "hash",
	})
}

func TestHandleQPS(t *testing.T) {
	s := testServer(t, 3)
	rec := httptest.NewRecorder()
	s.handleQPS(rec, httptest.NewRequest(http.MethodGet, "/qps?batch=4", nil))
	var body wire.QPS
	decodeReply(t, rec, &body)
	per := body.SteadyStateQPS
	if per <= 0 {
		t.Fatal("no QPS reported")
	}
	if agg := body.AggregateQPS; agg != per*3 {
		t.Fatalf("aggregate %v != 3x per-shard %v", agg, per)
	}
	// Invalid batch rejected.
	rec = httptest.NewRecorder()
	s.handleQPS(rec, httptest.NewRequest(http.MethodGet, "/qps?batch=0", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d for bad batch", rec.Code)
	}
}

func TestHandleInfer(t *testing.T) {
	s := testServer(t, 2)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(`{"batch":2}`))
	s.handleInfer(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var body wire.InferReply
	decodeReply(t, rec, &body)
	if len(body.Predictions) != 2 {
		t.Fatalf("predictions = %v", body.Predictions)
	}
	for _, p := range body.Predictions {
		if p <= 0 || p >= 1 {
			t.Fatalf("CTR %v out of range", p)
		}
	}
	if _, err := time.ParseDuration(body.SimulatedLatency); err != nil {
		t.Fatalf("latency %q: %v", body.SimulatedLatency, err)
	}
	if body.Shard < 0 || body.Shard >= 2 || body.CoalescedBatch < 2 {
		t.Fatalf("shard=%d coalesced=%d", body.Shard, body.CoalescedBatch)
	}
	bd := body.Breakdown
	for _, d := range []string{bd.Send, bd.Emb, bd.Bot, bd.Top, bd.Read} {
		if _, err := time.ParseDuration(d); err != nil {
			t.Fatalf("breakdown %+v: %v", bd, err)
		}
	}
	// GET rejected.
	rec = httptest.NewRecorder()
	s.handleInfer(rec, httptest.NewRequest(http.MethodGet, "/infer", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /infer status %d", rec.Code)
	}
	// Oversized batch rejected.
	rec = httptest.NewRecorder()
	s.handleInfer(rec, httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(`{"batch":9999}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("huge batch status %d", rec.Code)
	}
}

// TestConcurrentClients hammers every endpoint from parallel clients
// through the real mux. The shards share no simulation state — each has its
// own device, virtual clock and trace stream — so the only synchronisation
// is the pool's per-shard queues and each shard's stats mutex; run with
// `go test -race ./cmd/rmserve` to make the race detector check them.
func TestConcurrentClients(t *testing.T) {
	s := testServer(t, 4)
	srv := httptest.NewServer(s.routes())
	defer srv.Close()

	const (
		clients   = 8
		perClient = 5
		batch     = 2
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient*2)
	check := func(resp *http.Response, err error, what string) {
		if err != nil {
			errs <- fmt.Errorf("%s: %v", what, err)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			errs <- fmt.Errorf("%s: read body: %v", what, err)
			return
		}
		if resp.StatusCode != http.StatusOK {
			errs <- fmt.Errorf("%s: status %d: %s", what, resp.StatusCode, body)
		}
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(srv.URL+"/infer", "application/json",
					strings.NewReader(fmt.Sprintf(`{"batch":%d}`, batch)))
				check(resp, err, "POST /infer")
				path := [...]string{"/info", "/qps?batch=4", "/stats"}[(c+i)%3]
				resp, err = http.Get(srv.URL + path)
				check(resp, err, "GET "+path)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every submitted inference must be accounted for exactly once across
	// the shards: lost or double-counted batches would mean the pool
	// dropped or duplicated a coalesced request.
	var inferences int64
	var seq int
	for _, sh := range s.def.shards {
		inferences += sh.snapshot().inferences
		sh.mu.Lock()
		seq += sh.sh.Drawn()
		sh.mu.Unlock()
	}
	if want := int64(clients * perClient * batch); inferences != want {
		t.Errorf("shards served %d inferences, want %d", inferences, want)
	}
	if want := clients * perClient * batch; seq != want {
		t.Errorf("trace sequences advanced to %d, want %d", seq, want)
	}
	if ps := defPool(t, s).Stats(); ps.Requests != clients*perClient {
		t.Errorf("pool answered %d requests, want %d", ps.Requests, clients*perClient)
	}
}

// TestShardsIndependentClocks: two shards serve without advancing each
// other's virtual time.
func TestShardsIndependentClocks(t *testing.T) {
	s := testServer(t, 2)
	// Address shard 0 twice and shard 1 once via direct ServeBatch.
	one := []serving.Request{{N: 1}}
	s.def.shards[0].ServeBatch(one)
	s.def.shards[0].ServeBatch(one)
	s.def.shards[1].ServeBatch(one)
	now0, now1 := s.def.shards[0].snapshot().now, s.def.shards[1].snapshot().now
	if now0 <= now1 || now1 <= 0 {
		t.Fatalf("clocks: shard0=%v shard1=%v", now0, now1)
	}
}

func TestHandleStats(t *testing.T) {
	s := testServer(t, 2)
	// Run one inference so counters move.
	rec := httptest.NewRecorder()
	s.handleInfer(rec, httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(`{}`)))
	rec = httptest.NewRecorder()
	s.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var body wire.Stats
	decodeReply(t, rec, &body)
	if body.VectorReads <= 0 {
		t.Fatal("no vector reads counted")
	}
	if body.PageReads != 0 {
		t.Fatal("RM-SSD inference must not issue page reads")
	}
	if body.ObservedQPS <= 0 {
		t.Fatal("no observed QPS")
	}
	if len(body.Shards) != 2 {
		t.Fatalf("shards = %+v", body.Shards)
	}
}

// TestInferStatus maps every submission error class to its HTTP status,
// bare and wrapped the way the device and pool wrap them.
func TestInferStatus(t *testing.T) {
	for _, c := range []struct {
		err  error
		want int
	}{
		{rmssd.ErrShapeMismatch, http.StatusBadRequest},
		{rmssd.ErrRowOutOfRange, http.StatusBadRequest},
		{serving.ErrUnknownModel, http.StatusNotFound},
		{serving.ErrPoolClosed, http.StatusServiceUnavailable},
		{context.Canceled, http.StatusServiceUnavailable},
		{context.DeadlineExceeded, http.StatusServiceUnavailable},
		{rmssd.ErrReadFault, http.StatusServiceUnavailable},
		{&serving.ShardFaultError{Shard: 1, Recovered: "boom"}, http.StatusInternalServerError},
		{errors.New("plain"), http.StatusInternalServerError},
	} {
		for _, err := range []error{c.err, fmt.Errorf("shard 0: %w", c.err)} {
			if got := inferStatus(err); got != c.want {
				t.Errorf("inferStatus(%v) = %d, want %d", err, got, c.want)
			}
		}
	}
}
