package serving

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"rmssd/internal/obs"
)

// Mixed-model trace replay: drive heterogeneous replicas from one tagged
// request stream, deterministically.
//
// Each hosted model owns its own devices and therefore its own simulated
// timeline; models never contend in virtual time (the shared-host budget of
// the Router is a wall-clock concern, not a simulated one). A mixed replay
// is therefore, by construction, the superposition of one independent
// single-model replay per model: the tagged stream is partitioned by model
// tag, preserving each model's request subsequence, and every model replays
// its subsequence on its own seeded arrival timeline (seed derived from the
// global seed and the model name via ModelReplaySeed).
//
// This structure is the isolation guarantee multi-model serving needs and
// the tests pin: the per-model results of a mixed replay are byte-identical
// to running each model alone through its own pool on the same per-model
// request subsequence. Adding a second model to a host can never silently
// change the first model's simulated numbers.

// TaggedRequest is one request of a mixed trace, tagged with the model
// that must serve it.
type TaggedRequest struct {
	Model string
	Req   Request
}

// TaggedSource yields successive tagged requests; io.EOF ends the trace.
type TaggedSource interface {
	Next() (TaggedRequest, error)
}

// MultiReplayConfig tunes the mixed replay.
type MultiReplayConfig struct {
	// Rate is each model's offered load in requests per simulated second
	// (each model has its own independent arrival process).
	Rate float64
	// Requests bounds how many tagged requests to draw from the source;
	// 0 means replay until the source is exhausted (endless sources then
	// require a positive bound).
	Requests int
	// Seed drives every model's arrival process (via ModelReplaySeed).
	Seed uint64
	// Tracer, when non-nil, is threaded into every per-model replay with
	// the model name as the trace label (see ReplayConfig.Tracer).
	Tracer *obs.Tracer
}

// Validate reports configuration errors.
func (c MultiReplayConfig) Validate() error {
	switch {
	case c.Rate <= 0:
		return fmt.Errorf("serving: multi replay rate %v", c.Rate)
	case c.Requests < 0:
		return fmt.Errorf("serving: multi replay %d requests", c.Requests)
	}
	return nil
}

// MultiReplayResult summarises one mixed replay.
type MultiReplayResult struct {
	// Models lists the replayed model names in sorted order (models that
	// received no requests are omitted).
	Models []string
	// PerModel holds each model's full single-model replay result.
	PerModel map[string]ReplayResult
	// Aggregate counters across models.
	Requests   int
	Inferences int
	Batches    int
}

// ModelReplaySeed derives the named model's arrival-process seed from the
// replay's global seed: the global seed XOR an FNV-1a hash of the name.
// It is exported because it is part of the determinism contract — running
// one model alone with this seed over its subsequence of a mixed trace
// reproduces its mixed-replay results byte for byte.
func ModelReplaySeed(seed uint64, model string) uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(model); i++ {
		h ^= uint64(model[i])
		h *= 1099511628211 // FNV prime
	}
	return seed ^ h
}

// sliceSource replays a pre-collected request slice.
type sliceSource struct {
	reqs []Request
	i    int
}

func (s *sliceSource) Next() (Request, error) {
	if s.i >= len(s.reqs) {
		return Request{}, io.EOF
	}
	r := s.reqs[s.i]
	s.i++
	return r, nil
}

// MultiReplay partitions the tagged stream by model and replays each
// model's subsequence through its spec's backends at its spec's batch cap,
// on its own seeded virtual timeline (QueueDepth and Weight are live-path
// knobs and play no part). The specs are validated like NewRouter's.
// ServeBatch is invoked from this goroutine only, so the backends must not
// concurrently serve a live Pool.
func MultiReplay(models []ModelSpec, cfg MultiReplayConfig, src TaggedSource) (MultiReplayResult, error) {
	if err := cfg.Validate(); err != nil {
		return MultiReplayResult{}, err
	}
	if err := validateSpecs(models); err != nil {
		return MultiReplayResult{}, err
	}
	byName := make(map[string]*ModelSpec, len(models))
	for i := range models {
		byName[models[i].Name] = &models[i]
	}

	// Partition the mixed stream, preserving each model's subsequence.
	bound := cfg.Requests
	subseq := make(map[string][]Request, len(models))
	drawn := 0
	for bound == 0 || drawn < bound {
		tr, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return MultiReplayResult{}, fmt.Errorf("serving: multi replay source: %w", err)
		}
		if _, ok := byName[tr.Model]; !ok {
			return MultiReplayResult{}, fmt.Errorf("serving: multi replay request %d: %w %q", drawn, ErrUnknownModel, tr.Model)
		}
		if verr := tr.Req.Validate(); verr != nil {
			return MultiReplayResult{}, fmt.Errorf("serving: multi replay request %d (model %q): %w", drawn, tr.Model, verr)
		}
		subseq[tr.Model] = append(subseq[tr.Model], tr.Req)
		drawn++
	}
	if drawn == 0 {
		return MultiReplayResult{}, errors.New("serving: multi replay source yielded no requests")
	}

	res := MultiReplayResult{PerModel: make(map[string]ReplayResult, len(subseq))}
	for name := range subseq {
		res.Models = append(res.Models, name)
	}
	sort.Strings(res.Models)
	for _, name := range res.Models {
		m := byName[name]
		reqs := subseq[name]
		r, err := Replay(m.Backends, ReplayConfig{
			Rate:       cfg.Rate,
			MaxBatch:   m.MaxBatch,
			Requests:   len(reqs),
			Seed:       ModelReplaySeed(cfg.Seed, name),
			Tracer:     cfg.Tracer,
			TraceModel: name,
		}, &sliceSource{reqs: reqs})
		if err != nil {
			return MultiReplayResult{}, fmt.Errorf("serving: multi replay model %q: %w", name, err)
		}
		res.PerModel[name] = r
		res.Requests += r.Requests
		res.Inferences += r.Inferences
		res.Batches += r.Batches
	}
	return res, nil
}

// TaggedPart is one model's contribution to an interleaved mixed trace.
type TaggedPart struct {
	Model string
	// Source supplies the model's requests.
	Source RequestSource
	// Weight is the model's share of the mixed stream (smooth WRR over
	// the parts that are not yet exhausted). Zero means 1.
	Weight int
}

// InterleavedSource builds a deterministic mixed trace from per-model
// sources: requests are drawn by smooth weighted round robin over the
// parts still yielding, so a weight-2 model contributes twice as many
// requests as a weight-1 model, evenly interleaved. The source ends when
// every part has returned io.EOF.
type InterleavedSource struct {
	parts []TaggedPart
	done  []bool
	wrr   *wrrState
}

// NewInterleavedSource validates the parts and builds the mixed source.
func NewInterleavedSource(parts []TaggedPart) (*InterleavedSource, error) {
	if len(parts) == 0 {
		return nil, errors.New("serving: interleaved source needs at least one part")
	}
	seen := make(map[string]bool, len(parts))
	weights := make([]int, len(parts))
	for i, p := range parts {
		switch {
		case p.Model == "":
			return nil, fmt.Errorf("serving: interleaved part %d needs a model name", i)
		case p.Source == nil:
			return nil, fmt.Errorf("serving: interleaved part %q needs a source", p.Model)
		case p.Weight < 0:
			return nil, fmt.Errorf("serving: interleaved part %q weight %d", p.Model, p.Weight)
		case seen[p.Model]:
			return nil, fmt.Errorf("serving: interleaved part %q declared twice", p.Model)
		}
		seen[p.Model] = true
		weights[i] = p.Weight
	}
	return &InterleavedSource{
		parts: append([]TaggedPart(nil), parts...),
		done:  make([]bool, len(parts)),
		wrr:   newWRR(weights),
	}, nil
}

// Next returns the next tagged request of the mixed stream.
func (s *InterleavedSource) Next() (TaggedRequest, error) {
	for {
		i := s.wrr.pick(func(i int) bool { return !s.done[i] })
		if i < 0 {
			return TaggedRequest{}, io.EOF
		}
		req, err := s.parts[i].Source.Next()
		if err == io.EOF {
			s.done[i] = true
			continue
		}
		if err != nil {
			return TaggedRequest{}, fmt.Errorf("serving: interleaved part %q: %w", s.parts[i].Model, err)
		}
		return TaggedRequest{Model: s.parts[i].Model, Req: req}, nil
	}
}
