package engine

import (
	"errors"
	"fmt"
	"time"

	"rmssd/internal/flash"
	"rmssd/internal/model"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
)

// refEngine is the reference model of the Embedding Lookup Engine: the
// straight-line sequential datapath, one lookup at a time. Each index is
// parsed in its own cycle, translated, timed through the device's untouched
// ReadVectorAt, and summed on the EV Sum unit as soon as its read completes,
// with the bytes at its logical address (ssd.Device.PeekRange). Beside it,
// the reference models the dies' flush schedule on its own: each die is
// FCFS, a read's flush starts no earlier than its issue plus FTL
// translation and holds the die for one flush plus, per ECC retry (read off
// the flash counters), an ECC pass and a re-flush. loads records each
// batch's flushes per die, as the planner's Loads does. The planner
// (planner.go) must reproduce it bit for bit with the cache off and dedup
// off: values, completion times, die loads and every engine, device and
// flash counter.
type refEngine struct {
	*LookupEngine
	dieFree []sim.Time     // per die, channel-major: end of its last flush
	loads   []sim.LaneLoad // the latest batch's: per die, then the EV-cache port
}

func newRef(e *LookupEngine) *refEngine {
	geo := e.dev.Array().Geometry()
	dies := geo.Channels * geo.DiesPerChannel
	return &refEngine{LookupEngine: e, dieFree: make([]sim.Time, dies), loads: make([]sim.LaneLoad, dies+1)}
}

// flush records one vector read's flush on its die for a batch issued at
// at: the read reaches the die at ready and paid retries ECC retries.
func (e *refEngine) flush(at, ready sim.Time, ppa flash.PPA, retries int64) {
	die := ppa.Channel*e.dev.Array().Geometry().DiesPerChannel + ppa.Die
	tFlush := params.Duration(params.FlushCycles)
	occ := tFlush + time.Duration(retries)*(params.Duration(params.ECCRetryCycles)+tFlush)
	start := sim.Max(ready, e.dieFree[die])
	e.dieFree[die] = start + occ
	ld := &e.loads[die]
	if ld.Busy == 0 {
		ld.Release = start - at
	}
	ld.Busy += occ
}

// pool runs one inference of a batch issued at at.
func (e *refEngine) pool(at sim.Time, sparse [][]int64, materialize bool) ([]tensor.Vector, sim.Time, error) {
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
	arr := e.dev.Array()
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
			ppa, mapped := e.dev.TranslateRead(addr / int64(e.dev.PageSize()))
			retries := arr.Stats().ECCRetries
			readDone, err := e.dev.ReadVectorAt(issue, addr, evSize)
			if mapped {
				e.flush(at, issue+params.Duration(params.FTLCycles), ppa, arr.Stats().ECCRetries-retries)
			}
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

// poolBatch is the reference for a coalesced batch: pool per inference,
// every index stream clocked from at, the batch done when its last
// inference is. A read fault keeps the batch going; anything else aborts
// it.
func (e *refEngine) poolBatch(at sim.Time, sparses [][][]int64, materialize bool) ([][]tensor.Vector, sim.Time, error) {
	clear(e.loads)
	var pooled [][]tensor.Vector
	if materialize {
		pooled = make([][]tensor.Vector, len(sparses))
	}
	var done sim.Time
	var firstErr error
	for i, sparse := range sparses {
		p, d, err := e.pool(at, sparse, materialize)
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
