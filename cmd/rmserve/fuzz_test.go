package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"rmssd"
	"rmssd/internal/serving"
	"rmssd/internal/wire"
)

// fuzzOnce builds one small two-model server shared by every fuzz
// iteration: constructing devices per-input would dominate the run.
var (
	fuzzOnce   sync.Once
	fuzzServer *server
)

func fuzzSrv() *server {
	fuzzOnce.Do(func() {
		mk := func(name, arch string, weight int) wire.ModelDecl {
			return wire.ModelDecl{Name: name, Model: arch, TableMB: 8, Shards: 1, MaxBatch: 4, Queue: 16, Weight: weight}
		}
		s, err := serveModels(wire.ModelsConfig{Models: []wire.ModelDecl{mk("ctr", "RMC1", 2), mk("wide", "WnD", 1)}}, 1, 0)
		if err != nil {
			panic(fmt.Sprintf("rmserve: fuzz server: %v", err))
		}
		fuzzServer = s
	})
	return fuzzServer
}

// fuzzValidBody marshals a well-formed explicit request for the "wide"
// model (26 tables x 1 lookup, 13 dense features) as a seed input.
func fuzzValidBody(f *testing.F) []byte {
	f.Helper()
	sparse := make([][]int64, 26)
	for t := range sparse {
		sparse[t] = []int64{int64(t)}
	}
	body, err := json.Marshal(wire.InferRequest{
		Model:  "wide",
		Sparse: [][][]int64{sparse},
		Dense:  []rmssd.Vector{make(rmssd.Vector, 13)},
	})
	if err != nil {
		f.Fatal(err)
	}
	return body
}

// FuzzInferRequest drives the /infer body decoding and validation path
// (including the model-routing field) over arbitrary JSON. The contract:
// never panic, reject anything unservable with an error, and every request
// that passes is genuinely admissible — a positive in-bounds batch whose
// explicit payload matches the addressed model's shape exactly.
func FuzzInferRequest(f *testing.F) {
	f.Add([]byte(`{"batch":2}`))
	f.Add([]byte(`{"model":"wide","batch":1}`))
	f.Add([]byte(`{"model":"nope"}`))
	f.Add([]byte(`{"batch":-3}`))
	f.Add([]byte(`{"batch":100000}`))
	f.Add([]byte(`{"sparse":[[[0,1]]],"dense":[[0.5]]}`))
	f.Add([]byte(`{"dense":[[1,2,3]]}`))
	f.Add([]byte(`{"sparse":[[[-1]]],"model":"wide"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add(fuzzValidBody(f))
	f.Fuzz(func(t *testing.T, body []byte) {
		s := fuzzSrv()
		var req wire.InferRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return // malformed JSON: the handler 400s it
		}
		m, sreq, err := s.buildInferRequest(req)
		if err != nil {
			return // unservable: rejected with an error, as required
		}
		if m == nil {
			t.Fatal("accepted request resolved no model")
		}
		if req.Model != "" && m.decl.Name != req.Model {
			t.Fatalf("request for %q routed to %q", req.Model, m.decl.Name)
		}
		n := serving.CountOf([]serving.Request{sreq})
		if n <= 0 || n > maxInferBatch {
			t.Fatalf("accepted batch of %d inferences (max %d)", n, maxInferBatch)
		}
		if sreq.Explicit() {
			if err := validatePayload(m.cfg, sreq); err != nil {
				t.Fatalf("accepted payload fails the model's own shape check: %v", err)
			}
		}
	})
}
