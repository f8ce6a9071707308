package serving

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Multi-model serving: production recommendation hosts never serve one
// model. The deployments the paper positions itself against (Facebook's
// DLRM fleet, RecSSD's evaluation) multiplex heterogeneous configs — very
// different embedding-table footprints and MLP stacks — on shared machines.
// A ModelSpec declares one hosted model; the Router owns one named Pool per
// spec, each built from its own backends (its own devices, its own shapes),
// and dispatches requests by model name. MultiReplay replays the same specs
// on their simulated timelines.

// ErrUnknownModel is returned when a request names a model the router (or
// a mixed replay) does not host.
var ErrUnknownModel = errors.New("serving: unknown model")

// ModelSpec declares one hosted model, live (NewRouter) or replayed
// (MultiReplay).
type ModelSpec struct {
	// Name identifies the model to clients (the `model` field of a
	// request); it need not match the underlying architecture name, so
	// two differently-sized replicas of one architecture can coexist.
	Name string
	// Backends are the model's device shards (see NewPool).
	Backends []Batcher
	// MaxBatch caps the coalesced device batch (see NewPool).
	MaxBatch int
	// QueueDepth bounds the per-shard submission queue (see NewPool);
	// the replay has no queue and ignores it.
	QueueDepth int
	// Weight is the model's share of the shared host budget under the
	// Router's weighted-round-robin admission. Zero means 1; the replay
	// ignores it.
	Weight int
}

// validateSpecs checks a hosted-model list: at least one spec, each with a
// unique non-empty name, at least one backend, a positive batch cap and a
// non-negative weight.
func validateSpecs(specs []ModelSpec) error {
	if len(specs) == 0 {
		return errors.New("serving: no models to host")
	}
	seen := make(map[string]bool, len(specs))
	for i, s := range specs {
		switch {
		case s.Name == "":
			return fmt.Errorf("serving: model %d needs a name", i)
		case seen[s.Name]:
			return fmt.Errorf("serving: model %q declared twice", s.Name)
		case len(s.Backends) == 0:
			return fmt.Errorf("serving: model %q needs at least one backend", s.Name)
		case s.MaxBatch <= 0:
			return fmt.Errorf("serving: model %q max batch %d", s.Name, s.MaxBatch)
		case s.Weight < 0:
			return fmt.Errorf("serving: model %q weight %d", s.Name, s.Weight)
		}
		seen[s.Name] = true
	}
	return nil
}

// modelEntry is one hosted model: its pool plus live counters.
type modelEntry struct {
	name   string
	weight int
	pool   *Pool

	// Live counters, written by the Router on every submission.
	submitted atomic.Int64 // requests routed to this model
	rejected  atomic.Int64 // submissions never admitted to a device
	failed    atomic.Int64 // submissions served by a device that errored
	waited    atomic.Int64 // submissions that queued for budget admission
	latObs    atomic.Int64 // responses whose latency was observed
	latSumNs  atomic.Int64 // sum of simulated batch latencies observed
	latMaxNs  atomic.Int64 // max simulated batch latency observed
}

// observe records one served response's simulated latency (successful or
// device-failed — either way the batch actually ran on a device).
func (e *modelEntry) observe(lat time.Duration) {
	ns := int64(lat)
	e.latObs.Add(1)
	e.latSumNs.Add(ns)
	for {
		cur := e.latMaxNs.Load()
		if ns <= cur || e.latMaxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// ModelStats is a live snapshot of one hosted model.
type ModelStats struct {
	Model  string // hosted name
	Weight int    // WRR admission weight
	Pool   Stats  // pool counters (requests, inferences, batches, per shard)
	// Router counters.
	Submitted int64 // requests routed to this model
	Rejected  int64 // submissions never admitted to a device (validation, admission, queue, close)
	Failed    int64 // submissions a device served but answered with an error
	Waited    int64 // submissions that queued behind the shared budget
	// Simulated latency over served submissions (successful or failed).
	MeanLatency time.Duration
	MaxLatency  time.Duration
}

// stats builds the snapshot for one entry.
func (e *modelEntry) stats() ModelStats {
	st := ModelStats{
		Model:     e.name,
		Weight:    e.weight,
		Pool:      e.pool.Stats(),
		Submitted: e.submitted.Load(),
		Rejected:  e.rejected.Load(),
		Failed:    e.failed.Load(),
		Waited:    e.waited.Load(),
	}
	if n := e.latObs.Load(); n > 0 {
		st.MeanLatency = time.Duration(e.latSumNs.Load() / n)
	}
	st.MaxLatency = time.Duration(e.latMaxNs.Load())
	return st
}

// Router is the multi-model front-end: it owns one pool per hosted model,
// dispatches requests by model name and, when a shared host worker budget
// is configured, gates admission with weighted round robin.
//
// The budget models the fact that heterogeneous replicas share one host:
// every pool has its own shard workers, but the machine's cores (and, on
// real deployments, its PCIe lanes to the RM-SSDs) are common property. A
// budget of B bounds the number of requests in flight across all models at
// once; when it is exhausted, arriving requests queue per model and freed
// slots are handed out by smooth weighted round robin over the models with
// waiters — each model receives admissions in proportion to its spec's
// Weight, deterministically interleaved, with FIFO order within a model.
//
// A budget of 0 disables admission control entirely: requests go straight
// to their model's pool, which is the right setting for the deterministic
// replay paths (simulated timelines never contend for the host).
//
// Membership is fixed at construction, so the model table is read without
// locking; mu guards only the admission state.
type Router struct {
	budget  int
	entries []*modelEntry // spec order: the WRR tie-break and Close order
	index   map[string]int
	names   []string // sorted

	mu       sync.Mutex
	wrr      *wrrState
	inflight int
	waitq    [][]*admitWaiter // per-entry FIFO of budget waiters
}

// admitWaiter is one submission queued for budget admission. Receiving on
// ready grants ownership of one in-flight slot.
type admitWaiter struct {
	ready chan struct{}
}

// NewRouter validates every spec, then builds one pool per model in spec
// order behind a shared in-flight budget (0 = unlimited). An invalid list
// builds no pool.
func NewRouter(specs []ModelSpec, budget int) (*Router, error) {
	if err := validateSpecs(specs); err != nil {
		return nil, err
	}
	if budget < 0 {
		budget = 0
	}
	rt := &Router{budget: budget, index: make(map[string]int, len(specs))}
	weights := make([]int, len(specs))
	for i, s := range specs {
		if s.Weight == 0 {
			s.Weight = 1
		}
		rt.index[s.Name] = i
		rt.entries = append(rt.entries, &modelEntry{
			name:   s.Name,
			weight: s.Weight,
			pool:   NewPool(s.Backends, s.MaxBatch, s.QueueDepth),
		})
		rt.names = append(rt.names, s.Name)
		weights[i] = s.Weight
	}
	sort.Strings(rt.names)
	rt.wrr = newWRR(weights)
	rt.waitq = make([][]*admitWaiter, len(specs))
	return rt, nil
}

// Budget returns the shared in-flight budget (0 = unlimited).
func (rt *Router) Budget() int { return rt.budget }

// Models returns the hosted model names in sorted order: emission surfaces
// list models deterministically by construction, while spec order stays
// the WRR tie-break and the Close sequence.
func (rt *Router) Models() []string {
	return append([]string(nil), rt.names...)
}

// entry resolves a model name.
func (rt *Router) entry(name string) (*modelEntry, error) {
	i, ok := rt.index[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownModel, name)
	}
	return rt.entries[i], nil
}

// Pool returns the named model's pool.
func (rt *Router) Pool(name string) (*Pool, error) {
	e, err := rt.entry(name)
	if err != nil {
		return nil, err
	}
	return e.pool, nil
}

// ModelStats snapshots one hosted model's counters.
func (rt *Router) ModelStats(name string) (ModelStats, error) {
	e, err := rt.entry(name)
	if err != nil {
		return ModelStats{}, err
	}
	return e.stats(), nil
}

// Close closes every pool in spec order; submissions afterwards return
// ErrPoolClosed. Close is idempotent and safe to race with in-flight
// submissions.
func (rt *Router) Close() {
	for _, e := range rt.entries {
		e.pool.Close()
	}
}

// InFlight returns the number of currently admitted submissions. Always 0
// when no budget is configured.
func (rt *Router) InFlight() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.inflight
}

// Submit routes one request to the named model's pool, waiting for budget
// admission first when a shared budget is configured. The context bounds
// the admission wait, the queue wait and the result wait. Unknown models
// return ErrUnknownModel; closed pools return ErrPoolClosed.
func (rt *Router) Submit(ctx context.Context, model string, req Request) (Response, error) {
	i, ok := rt.index[model]
	if !ok {
		return Response{}, fmt.Errorf("%w %q", ErrUnknownModel, model)
	}
	e := rt.entries[i]
	e.submitted.Add(1)
	if err := rt.admit(ctx, i, e); err != nil {
		e.rejected.Add(1)
		return Response{}, err
	}
	resp, err := e.pool.Submit(ctx, req)
	rt.release()
	if err != nil {
		// A response with a batch size was actually served by a backend and
		// failed there (typed device error, shard fault, short predictions);
		// a zero response never reached a device — it was rejected at
		// validation, admission, queueing or pool close. The split keeps
		// "rejected" an admission-health signal and "failed" a device-health
		// signal, and only genuinely served responses carry a meaningful
		// latency.
		if resp.BatchSize > 0 {
			e.failed.Add(1)
			e.observe(resp.Latency)
		} else {
			e.rejected.Add(1)
		}
		return resp, err
	}
	e.observe(resp.Latency)
	return resp, nil
}

// admit acquires one in-flight slot, queueing behind the WRR scheduler
// when the budget is exhausted.
func (rt *Router) admit(ctx context.Context, i int, e *modelEntry) error {
	if rt.budget <= 0 {
		return nil
	}
	rt.mu.Lock()
	if rt.inflight < rt.budget {
		// Slots free implies no waiters: release hands freed slots to
		// waiters directly (inflight unchanged) and only decrements when
		// every queue is empty.
		rt.inflight++
		rt.mu.Unlock()
		return nil
	}
	w := &admitWaiter{ready: make(chan struct{}, 1)}
	rt.waitq[i] = append(rt.waitq[i], w)
	rt.mu.Unlock()
	e.waited.Add(1)
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		rt.mu.Lock()
		for j, x := range rt.waitq[i] {
			if x == w {
				rt.waitq[i] = append(rt.waitq[i][:j], rt.waitq[i][j+1:]...)
				rt.mu.Unlock()
				return fmt.Errorf("serving: model %q admission: %w", e.name, ctx.Err())
			}
		}
		// A slot was granted between ctx.Done and taking the lock; we are
		// abandoning it, so pass it on (or free it) before reporting the
		// cancellation.
		rt.releaseLocked()
		rt.mu.Unlock()
		return fmt.Errorf("serving: model %q admission: %w", e.name, ctx.Err())
	}
}

// release returns one in-flight slot: the WRR scheduler hands it to the
// next waiting model, or the budget regains a free slot.
func (rt *Router) release() {
	if rt.budget <= 0 {
		return
	}
	rt.mu.Lock()
	rt.releaseLocked()
	rt.mu.Unlock()
}

func (rt *Router) releaseLocked() {
	next := rt.wrr.pick(func(i int) bool { return len(rt.waitq[i]) > 0 })
	if next < 0 {
		rt.inflight--
		return
	}
	w := rt.waitq[next][0]
	rt.waitq[next] = rt.waitq[next][1:]
	w.ready <- struct{}{} // buffered: never blocks
}
