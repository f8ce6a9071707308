package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"rmssd/internal/wire"
)

// stubServer mimics the slice of rmserve's API rmreplay consumes: /info
// (default model), /models (hosted models with fixed counters), /infer
// (echoes a fixed reply while recording which model each body addressed)
// and /stats (the two models' counters summed). It encodes rmserve's own
// wire types, so a renamed field fails these tests.
func stubServer(t *testing.T) (*httptest.Server, *sync.Map) {
	t.Helper()
	var seen sync.Map // model name -> request count (int)
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, v interface{}) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(v); err != nil {
			t.Errorf("encode: %v", err)
		}
	}
	def := wire.ModelInfo{
		ModelDecl: wire.ModelDecl{Name: "ctr", Model: "RMC1", Shards: 2},
		Tables:    2, Lookups: 3, RowsPerTable: 64, DenseDim: 4, DeviceBatch: 8,
	}
	wide := wire.ModelInfo{
		ModelDecl: wire.ModelDecl{Name: "wide", Model: "WnD", Shards: 1},
		Tables:    3, Lookups: 1, RowsPerTable: 32, DenseDim: 2, DeviceBatch: 4,
	}
	mux.HandleFunc("/info", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, wire.Info{ModelInfo: def, Models: []string{"ctr", "wide"}, DefaultModel: "ctr"})
	})
	mux.HandleFunc("/models", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, wire.Models{
			Models: []wire.ModelEntry{
				{ModelInfo: def, Requests: 5, Inferences: 5, DeviceBatches: 5, MeanBatch: 1},
				{ModelInfo: wide, Requests: 4, Inferences: 8, DeviceBatches: 2, MeanBatch: 4},
			},
			DefaultModel: "ctr",
		})
	})
	mux.HandleFunc("/infer", func(w http.ResponseWriter, r *http.Request) {
		var body wire.InferRequest
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			writeJSON(w, wire.ErrorReply{Error: err.Error()})
			return
		}
		n, _ := seen.LoadOrStore(body.Model, new(int))
		cnt := n.(*int)
		// The test server is single-threaded per count via this mutex-free
		// pattern only because rmreplay runs make one concurrency lane.
		*cnt++
		writeJSON(w, wire.InferReply{
			Model:             body.Model,
			Predictions:       make([]float32, len(body.Sparse)),
			SimulatedLatency:  "10µs",
			CoalescedBatch:    len(body.Sparse),
			CoalescedRequests: 1,
		})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, wire.Stats{Requests: 9, Inferences: 13, DeviceBatches: 7, MeanBatch: 13.0 / 7})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, &seen
}

func TestRunDefaultModel(t *testing.T) {
	srv, seen := stubServer(t)
	var sb strings.Builder
	if err := run(srv.URL, "", "", 5, 1, 0, 1, 1, false, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"target:", "model=RMC1", "sim latency:", "wall latency:",
		"server:       9 requests, 13 inferences, 7 device batches (1.86 inferences/batch)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// Untagged bodies address the default model.
	n, ok := seen.Load("")
	if !ok || *n.(*int) != 5 {
		t.Fatalf("default-model requests not observed: %v", n)
	}
}

func TestRunNamedModel(t *testing.T) {
	srv, seen := stubServer(t)
	var sb strings.Builder
	if err := run(srv.URL, "wide", "", 4, 1, 0, 1, 1, false, &sb); err != nil {
		t.Fatal(err)
	}
	// The server line reports the named model's /models counters, not the
	// /stats totals over both models.
	for _, want := range []string{"model=WnD",
		"server:       4 requests, 8 inferences, 2 device batches (4.00 inferences/batch)"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, sb.String())
		}
	}
	n, ok := seen.Load("wide")
	if !ok || *n.(*int) != 4 {
		t.Fatalf("tagged requests not observed: %v", n)
	}
	if _, ok := seen.Load(""); ok {
		t.Fatal("untagged request leaked in named-model mode")
	}
}

func TestRunUnknownModel(t *testing.T) {
	srv, _ := stubServer(t)
	err := run(srv.URL, "mystery", "", 1, 1, 0, 1, 1, false, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "mystery") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run("http://127.0.0.1:0", "", "", 0, 1, 0, 1, 1, false, &strings.Builder{}); err == nil {
		t.Fatal("zero requests accepted")
	}
	if err := run("http://127.0.0.1:0", "", "", 1, 0, 0, 1, 1, false, &strings.Builder{}); err == nil {
		t.Fatal("zero req-batch accepted")
	}
	if err := run("http://127.0.0.1:0", "", "", 1, 1, 0, 0, 1, false, &strings.Builder{}); err == nil {
		t.Fatal("zero concurrency accepted")
	}
}
