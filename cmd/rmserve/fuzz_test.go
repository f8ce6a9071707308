package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"rmssd"
	"rmssd/internal/serving"
)

// fuzzOnce builds one small two-model server shared by every fuzz
// iteration: constructing devices per-input would dominate the run.
var (
	fuzzOnce   sync.Once
	fuzzServer *server
)

func fuzzSrv() *server {
	fuzzOnce.Do(func() {
		mk := func(name, arch string, weight int) modelDecl {
			return modelDecl{Name: name, Model: arch, TableMB: 8, Shards: 1, MaxBatch: 4, Queue: 16, Weight: weight}
		}
		s, err := modelsConfig{Models: []modelDecl{mk("ctr", "RMC1", 2), mk("wide", "WnD", 1)}}.serve(1, 0)
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
	body, err := json.Marshal(inferRequest{
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
		var req inferRequest
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

// checkDeclBounds restates every bound an accepted decl must satisfy.
func checkDeclBounds(d modelDecl) error {
	if _, err := rmssd.ModelByName(d.Model); err != nil || d.Name == "" {
		return fmt.Errorf("unresolved name %q or architecture %q", d.Name, d.Model)
	}
	if d.TableMB <= 0 || d.TableMB > 1<<20 || d.EVCacheMB < 0 || d.EVCacheMB > 1<<20 {
		return fmt.Errorf("budgets tableMB %d evCacheMB %d", d.TableMB, d.EVCacheMB)
	}
	if d.Shards < 1 || d.Queue < 1 || d.Weight < 1 || d.MaxBatch < 0 {
		return fmt.Errorf("shards %d queue %d weight %d maxBatch %d", d.Shards, d.Queue, d.Weight, d.MaxBatch)
	}
	if !(d.FaultRate >= 0 && d.FaultRate < 1) {
		return fmt.Errorf("faultRate %v", d.FaultRate)
	}
	if d.ArrayDevices < 0 || d.ArrayDevices > rmssd.MaxArrayDevices {
		return fmt.Errorf("arrayDevices %d", d.ArrayDevices)
	}
	if d.ArrayDevices > 1 && d.Partition != "range" && d.Partition != "hash" ||
		d.ArrayDevices <= 1 && d.Partition != "" {
		return fmt.Errorf("partition %q with arrayDevices %d", d.Partition, d.ArrayDevices)
	}
	return nil
}

// FuzzModelsConfig drives the -models decoder over arbitrary bytes. The
// contract: never panic; every accepted decl satisfies every bound under a
// unique name; and validation is idempotent, so re-encoding an accepted
// config and parsing it again yields the same decls. The seed corpus lives
// in testdata/fuzz/FuzzModelsConfig.
func FuzzModelsConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		mc, err := parseModelsConfig(bytes.NewReader(doc))
		if err != nil {
			return
		}
		seen := make(map[string]bool, len(mc.Models))
		for i, d := range mc.Models {
			if err := checkDeclBounds(d); err != nil {
				t.Fatalf("accepted models[%d] out of bounds: %v\n%+v", i, err, d)
			}
			if seen[d.Name] {
				t.Fatalf("accepted duplicate name %q", d.Name)
			}
			seen[d.Name] = true
		}
		raw, err := json.Marshal(mc)
		if err != nil {
			t.Fatalf("accepted config does not re-encode: %v", err)
		}
		again, err := parseModelsConfig(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-encoded config rejected: %v\n%s", err, raw)
		}
		if !reflect.DeepEqual(mc, again) {
			t.Fatalf("validate not idempotent:\n%+v\n%+v", mc, again)
		}
	})
}
