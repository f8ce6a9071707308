package engine

import (
	"errors"
	"fmt"

	"rmssd/internal/flash"
	"rmssd/internal/model"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
)

// refPool is the reference model of the Embedding Lookup Engine: the
// straight-line sequential datapath, one lookup at a time. Each index is
// parsed in its own cycle, translated, timed through the device's untouched
// ReadVectorAt, and summed on the EV Sum unit as soon as its read completes,
// with the bytes at its logical address (ssd.Device.PeekRange). The planner (planner.go) must reproduce it bit for bit with the
// cache off and dedup off, at any lane count: values, completion times and
// every engine, device and flash counter.
func refPool(e *LookupEngine, at sim.Time, sparse [][]int64, materialize bool) ([]tensor.Vector, sim.Time, error) {
	cfg := e.st.Model().Cfg
	if len(sparse) != cfg.Tables {
		return nil, at, fmt.Errorf("ref: %d sparse inputs, want %d: %w", len(sparse), cfg.Tables, ErrShapeMismatch)
	}
	var pooled []tensor.Vector
	if materialize {
		pooled = make([]tensor.Vector, cfg.Tables)
		for t := range pooled {
			pooled[t] = make(tensor.Vector, cfg.EVDim)
		}
	}
	evSize := cfg.EVSize()
	sumOcc := params.Duration(e.sumCycles())
	issue := at
	var done sim.Time
	var firstErr error
	for t, rows := range sparse {
		for _, row := range rows {
			issue += params.CycleTime
			addr, err := e.tr.Lookup(t, row)
			if err != nil {
				return nil, sim.Max(done, issue), err
			}
			readDone, err := e.dev.ReadVectorAt(issue, addr, evSize)
			if err != nil {
				// Uncorrectable read: no bytes, no EV Sum term; the batch
				// keeps issuing and the call fails at the end.
				if firstErr == nil {
					firstErr = fmt.Errorf("ref: row %d of table %d: %w", row, t, err)
				}
				done = sim.Max(done, readDone)
			} else {
				if materialize {
					model.AccumulateEV(pooled[t], e.dev.PeekRange(addr, evSize))
				}
				_, sumDone := e.sum.Acquire(readDone, sumOcc)
				done = sim.Max(done, sumDone)
			}
			e.stats.Lookups++
			e.stats.BytesPooled += int64(evSize)
		}
	}
	if done < issue {
		done = issue
	}
	return pooled, done, firstErr
}

// refPoolBatch is the reference for a coalesced batch: refPool per
// inference, every index stream clocked from at, the batch done when its
// last inference is. A read fault keeps the batch going; anything else
// aborts it.
func refPoolBatch(e *LookupEngine, at sim.Time, sparses [][][]int64, materialize bool) ([][]tensor.Vector, sim.Time, error) {
	var pooled [][]tensor.Vector
	if materialize {
		pooled = make([][]tensor.Vector, len(sparses))
	}
	var done sim.Time
	var firstErr error
	for i, sparse := range sparses {
		p, d, err := refPool(e, at, sparse, materialize)
		if err != nil {
			if !errors.Is(err, flash.ErrUncorrectable) {
				return nil, sim.Max(done, d), fmt.Errorf("ref: inference %d: %w", i, err)
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("ref: inference %d: %w", i, err)
			}
		}
		if materialize {
			pooled[i] = p
		}
		done = sim.Max(done, d)
	}
	return pooled, done, firstErr
}
