package wire

import (
	"encoding/json"
	"testing"

	"rmssd/internal/tensor"
)

// An /infer body omits an empty model, a zero batch and absent dense
// vectors, so a client's explicit-payload bodies carry only what it set.
func TestInferRequestEncoding(t *testing.T) {
	for _, c := range []struct {
		req  InferRequest
		want string
	}{
		{InferRequest{Sparse: [][][]int64{{{1, 2}}}}, `{"sparse":[[[1,2]]]}`},
		{InferRequest{Model: "ctr", Sparse: [][][]int64{{{3}}}, Dense: []tensor.Vector{{0.5}}},
			`{"model":"ctr","sparse":[[[3]]],"dense":[[0.5]]}`},
		{InferRequest{Model: "ctr", Batch: 2}, `{"model":"ctr","batch":2,"sparse":null}`},
	} {
		got, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("Marshal(%+v) = %s, want %s", c.req, got, c.want)
		}
	}
}
