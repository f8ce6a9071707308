package main

import (
	"encoding/json"
	"fmt"
	"io"

	"rmssd"
)

// inputs are one workload's requests, all generated up front from the seed.
// Both replay legs serve every request once; the live leg cycles through
// them, so every live reply has a replayed prediction to be checked against.
type inputs struct {
	reqs []rmssd.TaggedRequest
	// index maps a request's identity (its first sparse row, which no other
	// request shares) to its position in reqs.
	index  map[*[][]int64]int
	bodies [][]byte // the /infer body of each request
}

// inferBody is rmserve's explicit-payload /infer request.
type inferBody struct {
	Model  string         `json:"model"`
	Sparse [][][]int64    `json:"sparse"`
	Dense  []rmssd.Vector `json:"dense"`
}

// makeInputs draws the workload's request stream: one seeded generator per
// model at the workload's locality, interleaved by model weight.
func makeInputs(w workload, seed uint64) (*inputs, error) {
	parts := make([]rmssd.TaggedPart, 0, len(w.models))
	for _, m := range w.models {
		cfg, err := m.config()
		if err != nil {
			return nil, err
		}
		tc, err := rmssd.TraceConfig{
			Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups,
			Seed: rmssd.ModelReplaySeed(seed, m.Name),
		}.WithLocality(w.locality)
		if err != nil {
			return nil, err
		}
		gen, err := rmssd.NewTrace(tc)
		if err != nil {
			return nil, err
		}
		var src rmssd.RequestSource = noDenseSource{gen: gen, n: w.reqInfer}
		if cfg.DenseDim > 0 {
			if src, err = rmssd.NewGeneratorSource(gen, w.reqInfer, cfg.DenseDim); err != nil {
				return nil, err
			}
		}
		parts = append(parts, rmssd.TaggedPart{Model: m.Name, Source: src, Weight: m.Weight})
	}
	mixed, err := rmssd.NewInterleavedSource(parts)
	if err != nil {
		return nil, err
	}
	in := &inputs{index: make(map[*[][]int64]int, w.requests)}
	for len(in.reqs) < w.requests {
		tr, err := mixed.Next()
		if err != nil {
			return nil, fmt.Errorf("generating request %d: %w", len(in.reqs), err)
		}
		body, err := json.Marshal(inferBody{Model: tr.Model, Sparse: tr.Req.Sparse, Dense: tr.Req.Dense})
		if err != nil {
			return nil, err
		}
		in.index[&tr.Req.Sparse[0]] = len(in.reqs)
		in.reqs = append(in.reqs, tr)
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// noDenseSource draws requests for a model without dense features (NCF),
// which rmssd.NewGeneratorSource does not accept: every inference carries
// an empty dense vector, exactly what such a model's device expects.
type noDenseSource struct {
	gen *rmssd.TraceGenerator
	n   int
}

func (s noDenseSource) Next() (rmssd.ServingRequest, error) {
	req := rmssd.ServingRequest{Sparse: s.gen.Batch(s.n), Dense: make([]rmssd.Vector, s.n)}
	for i := range req.Dense {
		req.Dense[i] = rmssd.Vector{}
	}
	return req, nil
}

// taggedSlice replays a generated request slice as a tagged source.
type taggedSlice struct {
	reqs []rmssd.TaggedRequest
	next int
}

func (s *taggedSlice) Next() (rmssd.TaggedRequest, error) {
	if s.next >= len(s.reqs) {
		return rmssd.TaggedRequest{}, io.EOF
	}
	s.next++
	return s.reqs[s.next-1], nil
}
