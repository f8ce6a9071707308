// Package sim provides a small deterministic virtual-time simulation kernel.
//
// Every latency in the repository is expressed as arithmetic on simulated
// time (time.Duration offsets from a zero epoch); nothing reads the wall
// clock, so all experiments are exactly reproducible.
//
// The central abstraction is the FCFS Resource: a device (flash die, channel
// bus, DMA engine, CPU core) that can serve one request at a time. A request
// arriving at time t on a resource that is free at time f starts at
// max(t, f) and occupies the resource for its duration. Scheduling a batch
// of requests in arrival order therefore yields the same completion times an
// event-driven simulator would produce, without an event loop.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, measured from the simulation epoch.
type Time = time.Duration

// Resource models a device that serves requests one at a time, first come
// first served. The zero value is a resource that is free at the epoch.
type Resource struct {
	name     string
	nextFree Time
	busy     time.Duration // total occupied time, for utilization stats
	served   int
}

// NewResource returns a named FCFS resource, free at the epoch.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// Acquire schedules a request arriving at time at with the given service
// duration. It returns the interval [start, end) during which the resource
// is held.
func (r *Resource) Acquire(at Time, d time.Duration) (start, end Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative duration %v on %s", d, r.name))
	}
	prevFree := r.nextFree
	start = at
	if r.nextFree > start {
		start = r.nextFree
	}
	end = start + d
	r.nextFree = end
	r.busy += d
	r.served++
	debugAcquire(r, at, start, end, prevFree)
	return start, end
}

// FreeAt reports the earliest time a new request could start service.
func (r *Resource) FreeAt() Time { return r.nextFree }

// Busy returns the total time the resource has been occupied.
func (r *Resource) Busy() time.Duration { return r.busy }

// Served returns the number of requests the resource has served.
func (r *Resource) Served() int { return r.served }

// Reset returns the resource to its initial idle state.
func (r *Resource) Reset() {
	r.nextFree = 0
	r.busy = 0
	r.served = 0
}

// Utilization returns busy time as a fraction of the horizon.
func (r *Resource) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(r.busy) / float64(horizon)
}

// Pool is an indexed set of identical resources, e.g. the dies of a flash
// channel or the channels of an SSD.
type Pool struct {
	name string
	rs   []*Resource
	rr   int // round-robin cursor
}

// NewPool creates a pool of n resources named name[0..n).
func NewPool(name string, n int) *Pool {
	if n <= 0 {
		panic("sim: pool size must be positive")
	}
	p := &Pool{name: name, rs: make([]*Resource, n)}
	for i := range p.rs {
		p.rs[i] = NewResource(fmt.Sprintf("%s[%d]", name, i))
	}
	return p
}

// Len returns the number of resources in the pool.
func (p *Pool) Len() int { return len(p.rs) }

// Get returns resource i.
func (p *Pool) Get(i int) *Resource { return p.rs[i] }

// NextRR returns the next resource in round-robin order. The paper stripes
// embedding-vector reads over channels and dies in this fashion.
func (p *Pool) NextRR() *Resource {
	r := p.rs[p.rr]
	p.rr = (p.rr + 1) % len(p.rs)
	return r
}

// EarliestFree returns the resource with the smallest FreeAt, breaking ties
// by index. This models a scheduler that dispatches to the least-loaded
// unit.
func (p *Pool) EarliestFree() *Resource {
	best := p.rs[0]
	for _, r := range p.rs[1:] {
		if r.FreeAt() < best.FreeAt() {
			best = r
		}
	}
	return best
}

// Reset resets every resource in the pool and the round-robin cursor.
func (p *Pool) Reset() {
	for _, r := range p.rs {
		r.Reset()
	}
	p.rr = 0
}

// Busy returns the summed busy time across the pool.
func (p *Pool) Busy() time.Duration {
	var total time.Duration
	for _, r := range p.rs {
		total += r.Busy()
	}
	return total
}

// MaxFreeAt returns the latest FreeAt across the pool: the time at which all
// in-flight work on the pool has drained.
func (p *Pool) MaxFreeAt() Time {
	var m Time
	for _, r := range p.rs {
		if r.FreeAt() > m {
			m = r.FreeAt()
		}
	}
	return m
}

// Max returns the larger of two times.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the smaller of two times.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}
