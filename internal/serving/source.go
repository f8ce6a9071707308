package serving

import (
	"fmt"
	"io"

	"rmssd/internal/tensor"
	"rmssd/internal/trace"
)

// Request sources: adapters from the trace layer to payload-carrying
// requests. Both produce Explicit requests — every index the device serves
// originated outside the pool, which is what makes the replay trace-driven
// rather than self-stimulating. CountSource is the exception, for
// timing-only replays.

// CountSource yields count-only requests of n inferences without end; the
// backends synthesise their own inputs. Bound the replay with
// ReplayConfig.Requests.
type CountSource int

// Next returns the next request.
func (n CountSource) Next() (Request, error) { return Request{N: int(n)}, nil }

// GeneratorSource draws requests from a synthetic trace generator with the
// paper's Criteo-derived locality. It never returns io.EOF; bound the
// replay with ReplayConfig.Requests.
type GeneratorSource struct {
	gen      *trace.Generator
	batch    int
	denseDim int
	seq      int
}

// NewGeneratorSource wraps gen; each request carries batch inferences and
// dense vectors of denseDim features (matching Generator.DenseInput's
// sequence, so a replay consumes the generator stream exactly like the
// count-only serving path does).
func NewGeneratorSource(gen *trace.Generator, batch, denseDim int) (*GeneratorSource, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("serving: generator source batch %d", batch)
	}
	if denseDim <= 0 {
		return nil, fmt.Errorf("serving: generator source dense dim %d", denseDim)
	}
	return &GeneratorSource{gen: gen, batch: batch, denseDim: denseDim}, nil
}

// Next returns the next batch-sized request.
func (s *GeneratorSource) Next() (Request, error) {
	denses := make([]tensor.Vector, s.batch)
	for i := range denses {
		denses[i] = s.gen.DenseInput(s.seq+i, s.denseDim)
	}
	sparses := s.gen.Batch(s.batch)
	s.seq += s.batch
	return Request{Sparse: sparses, Dense: denses}, nil
}

// CriteoSource adapts a Kaggle-Criteo-format TSV stream to a model's input
// shape. Each inference consumes `lookups` consecutive records, so every
// pooled lookup of a table comes from a distinct record (via
// trace.RecordsToInference); the dense input is the first record's 13
// log-transformed integer features padded or truncated to denseDim. The
// source ends (io.EOF) when the TSV does; a trailing partial batch is
// returned before EOF.
type CriteoSource struct {
	p        *trace.CriteoParser
	tables   int
	lookups  int
	denseDim int
	batch    int
	done     bool
}

// NewCriteoSource builds a source mapping records onto a model with the
// given tables × lookups sparse shape and denseDim dense features; each
// request carries batch inferences.
func NewCriteoSource(p *trace.CriteoParser, tables, lookups, denseDim, batch int) (*CriteoSource, error) {
	switch {
	case p == nil:
		return nil, fmt.Errorf("serving: nil criteo parser")
	case tables <= 0 || lookups <= 0:
		return nil, fmt.Errorf("serving: criteo source shape %d tables x %d lookups", tables, lookups)
	case denseDim <= 0:
		return nil, fmt.Errorf("serving: criteo source dense dim %d", denseDim)
	case batch <= 0:
		return nil, fmt.Errorf("serving: criteo source batch %d", batch)
	}
	return &CriteoSource{p: p, tables: tables, lookups: lookups, denseDim: denseDim, batch: batch}, nil
}

// inference reads the records of one inference; n == 0 at stream end.
func (s *CriteoSource) inference() (sparse [][]int64, dense tensor.Vector, err error) {
	recs := make([]trace.CriteoRecord, 0, s.lookups)
	for len(recs) < s.lookups {
		rec, err := s.p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil, nil, io.EOF
	}
	dense = make(tensor.Vector, s.denseDim)
	copy(dense, recs[0].Dense)
	return trace.RecordsToInference(recs, s.tables, s.lookups), dense, nil
}

// Next returns the next request, batching up to s.batch inferences.
func (s *CriteoSource) Next() (Request, error) {
	if s.done {
		return Request{}, io.EOF
	}
	var req Request
	for len(req.Sparse) < s.batch {
		sparse, dense, err := s.inference()
		if err == io.EOF {
			s.done = true
			break
		}
		if err != nil {
			return Request{}, err
		}
		req.Sparse = append(req.Sparse, sparse)
		req.Dense = append(req.Dense, dense)
	}
	if len(req.Sparse) == 0 {
		return Request{}, io.EOF
	}
	return req, nil
}
