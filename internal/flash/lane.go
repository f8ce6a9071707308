package flash

import (
	"fmt"

	"rmssd/internal/params"
	"rmssd/internal/sim"
)

// Lane is a per-channel view of the array for lane-parallel simulation.
//
// The array's timing resources decompose cleanly by channel: channel c's bus
// and its die pool are touched only by requests whose PPA names channel c
// (Section IV-B2: one shared bus per channel, dies flush independently).
// Because sim.Resource is FCFS — each Acquire depends only on that
// resource's own history — replaying channel c's requests in their original
// arrival order on a dedicated goroutine produces exactly the (start, end)
// intervals the single-threaded schedule would, and a set of lanes covering
// disjoint channels may run concurrently.
//
// A Lane binds the channel's bus and dies into a sim.LaneScope (asserted
// under the simdebug tag), accumulates traffic Stats locally so concurrent
// lanes never touch the shared counters, and merges them back into the
// array in Close, which the coordinating goroutine must call after the lane
// goroutine has been joined.
//
// A lane read moves no bytes: it schedules the die and the bus and counts
// traffic. The vector's contents are untimed, and the caller copies them
// out through the device (ssd.Device.PeekVectorInto) once the lanes are
// joined.
type Lane struct {
	a      *Array
	ch     int
	scope  sim.LaneScope
	stats  Stats
	chIO   ChannelCounters
	closed bool
}

// Lane creates the lane for channel ch, claiming its bus and dies. The
// caller must not issue timed operations on that channel through the Array
// until Close; under simdebug doing so panics. The lane is returned by value
// so a caller that opens lanes per batch can keep them in reusable storage.
func (a *Array) Lane(ch int) Lane {
	if ch < 0 || ch >= a.geo.Channels {
		panic(fmt.Sprintf("flash: lane channel %d of %d", ch, a.geo.Channels))
	}
	l := Lane{a: a, ch: ch, scope: sim.NewLaneScope(ch + 1)}
	l.scope.Bind(a.buses[ch])
	for d := 0; d < a.geo.DiesPerChannel; d++ {
		l.scope.Bind(a.dies[ch].Get(d))
	}
	return l
}

// Channel returns the channel this lane owns.
func (l *Lane) Channel() int { return l.ch }

// checkPPA asserts the address is in range and on this lane's channel.
func (l *Lane) checkPPA(p PPA) {
	l.a.checkPPA(p)
	if p.Channel != l.ch {
		panic(fmt.Sprintf("flash: lane for channel %d given PPA on channel %d", l.ch, p.Channel))
	}
}

// VectorTiming is the schedule of one vector read on a lane: the die
// interval its flush held, ECC retries included, and when its bytes left
// the channel bus (the flush end for an uncorrectable read, which
// transfers nothing).
type VectorTiming struct {
	FlushStart, FlushEnd sim.Time
	Done                 sim.Time
}

// ReadVector is Array.ReadVector on this lane: die flush, then size bytes
// over the channel bus, returning the read's schedule and no bytes (see
// Lane). Stats accumulate lane-locally. Fault draws
// advance only this lane's channel stream (a distinct slice element), so
// concurrent lanes stay race-free and the draw order matches the
// single-threaded schedule. On an uncorrectable read the error wraps
// ErrUncorrectable.
func (l *Lane) ReadVector(at sim.Time, p PPA, col, size int) (VectorTiming, error) {
	l.checkPPA(p)
	if col < 0 || size <= 0 || col+size > l.a.geo.PageSize {
		panic(fmt.Sprintf("flash: vector read [%d,%d) crosses page of size %d", col, col+size, l.a.geo.PageSize))
	}
	retries, fatal := l.a.sampleVectorFaults(l.ch)
	die := l.a.dies[l.ch].Get(p.Die)
	var vt VectorTiming
	vt.FlushStart, vt.FlushEnd = l.scope.Acquire(die, at, l.a.vectorFlushOccupancy(retries))
	vt.Done = vt.FlushEnd
	l.stats.VectorReads++
	l.stats.BytesFlushed += int64(l.a.geo.PageSize)
	countVectorFaults(&l.stats, l.a.geo.PageSize, retries, fatal)
	countChannelFaults(&l.chIO, retries, fatal)
	if fatal {
		return vt, fmt.Errorf("flash: ch%d die %d page %d: vector read uncorrectable after %d retries: %w",
			l.ch, p.Die, p.Page, retries, ErrUncorrectable)
	}
	trans := params.Duration(params.VectorTransferCycles(size))
	_, vt.Done = l.scope.Acquire(l.a.buses[l.ch], vt.FlushEnd, trans)
	l.stats.BytesTransferred += int64(size)
	return vt, nil
}

// Stats returns the lane-local traffic counters accumulated so far.
func (l *Lane) Stats() Stats { return l.stats }

// Close releases the lane's resources and folds its counters into the
// array's shared Stats. It must run on the coordinating goroutine after the
// lane goroutine has been joined; closing twice is a no-op.
func (l *Lane) Close() {
	if l.closed {
		return
	}
	l.closed = true
	l.a.AddStats(l.stats)
	l.a.AddChannelIO(l.ch, l.chIO)
	l.scope.Release(l.a.buses[l.ch])
	for d := 0; d < l.a.geo.DiesPerChannel; d++ {
		l.scope.Release(l.a.dies[l.ch].Get(d))
	}
}

// Add folds another snapshot into s. Every field is a sum, so merging
// per-lane snapshots in any order yields the same totals as sequential
// accounting.
func (s *Stats) Add(o Stats) {
	s.PageReads += o.PageReads
	s.VectorReads += o.VectorReads
	s.PageWrites += o.PageWrites
	s.Erases += o.Erases
	s.BytesTransferred += o.BytesTransferred
	s.BytesFlushed += o.BytesFlushed
	s.ReadFaults += o.ReadFaults
	s.ECCRetries += o.ECCRetries
	s.Uncorrectable += o.Uncorrectable
}

// AddStats folds externally accumulated counters (a joined lane's) into the
// array's shared Stats. Callers must be single-threaded with respect to the
// array at that point.
func (a *Array) AddStats(s Stats) { a.stats.Add(s) }
