package serving

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Sharded serving front-end.
//
// A single simulated device is inherently serial: its virtual clock is one
// global timeline, so a server wrapping one device must serialise every
// request behind a mutex no matter how many host cores exist. The scalable
// shape — the one the paper's own evaluation uses when it provisions one
// RM-SSD per model replica — is N independent devices, each with its own
// virtual clock, behind a dispatcher.
//
// Pool implements that front-end: each request goes to the shard that can
// start it soonest (Pool.pick, the rule Replay follows on the virtual
// clock), and each shard's goroutine coalesces everything queued for it
// into one device batch before serving (the consecutive-small-batch
// pipelining of Section VI: many small host requests ride one device batch,
// amortising the MMIO/DMA and kernel-launch overheads). Because shards
// share no simulation state, the host serves requests on all cores with no
// global lock, and each shard's timeline remains exactly as deterministic
// as a single-device server's.
//
// Requests carry their payloads (see Request): a coalesced device batch is
// the concatenation of its requests' inputs, and each response gets back a
// copy of its own window of the batch predictions — never an aliased view
// of the shared result slice.

// ErrPoolClosed is returned by Infer/Submit on a closed pool.
var ErrPoolClosed = errors.New("serving: pool is closed")

// BatchResult is the outcome of one coalesced device batch.
type BatchResult struct {
	// Preds holds one prediction per inference, concatenated in request
	// submission order. Timing-only backends may leave it nil. Requests
	// failed via ReqErrs contribute no predictions: their windows are
	// simply absent and the remaining windows close ranks.
	Preds []float32
	// Latency is the simulated latency of the whole device batch.
	Latency time.Duration
	// Meta carries backend-specific detail (e.g. a stage breakdown)
	// through to every response that rode this batch. Replay pipelines
	// consecutive batches over the stages a Meta with a
	// Stages() []sim.Stage method reports (core.Breakdown does).
	Meta interface{}
	// Err fails the whole batch: every request on it gets this error and
	// no predictions. Set it for device-level failures (an uncorrectable
	// read fails the device call, hence everyone who rode it).
	Err error
	// ReqErrs, when non-nil, is indexed like reqs: a non-nil entry fails
	// exactly that request (e.g. it failed the backend's shape or row
	// validation) while its batch-mates are served normally.
	ReqErrs []error
}

// Batcher is one shard's backend: an independent simulated device. The pool
// calls ServeBatch from exactly one goroutine per shard, so implementations
// need no locking against the pool itself (only against external readers of
// their own state, e.g. a stats endpoint).
type Batcher interface {
	// ServeBatch runs the coalesced requests as one device batch at the
	// shard's current virtual time and advances that shard's clock.
	// Payload-carrying requests must be served from exactly their inputs;
	// count-only requests take backend-synthesised inputs. Preds must hold
	// CountOf(reqs) predictions in request order (or nil for timing-only
	// backends).
	//
	// reqs is valid only for the duration of the call: the pool reuses its
	// backing array for the next coalesced batch. Implementations must not
	// retain the slice (copy any request they need to keep), and the result
	// they return must not alias it.
	ServeBatch(reqs []Request) BatchResult
}

// Response is what one submitted request gets back.
type Response struct {
	Preds     []float32     // this request's predictions (owned copy, not aliased)
	Latency   time.Duration // simulated latency of the coalesced batch
	BatchSize int           // total inferences in the coalesced batch
	Shard     int           // which shard served it
	Coalesced int           // how many requests rode the same batch
	Meta      interface{}   // backend meta for the batch
	// Err is set when the backend's result could not cover this request
	// (e.g. it returned fewer predictions than the batch carried).
	Err error
}

// ShardFaultError reports a Batcher that panicked under a shard worker.
// The worker recovers, fails every request on the faulting batch with this
// error, and keeps serving: one poisoned batch must not wedge the shard,
// hang later Submits, or deadlock Close. Match with errors.As.
type ShardFaultError struct {
	Shard     int
	Recovered interface{} // the recovered panic value
	Stack     string      // stack captured at recovery, for diagnosis
}

func (e *ShardFaultError) Error() string {
	return fmt.Sprintf("serving: shard %d backend fault: %v", e.Shard, e.Recovered)
}

// submission is one queued request.
type submission struct {
	req   Request
	reply chan Response
}

// replyPool recycles the buffered reply channels Submit hands to shards. A
// channel goes back to the pool only while Submit provably owns both ends:
// before it was ever enqueued, or after its one response was received (which
// empties the buffer). A reply abandoned to a cancelled context is never
// recycled — the shard still holds the send side and will deposit a late
// response, which must not leak into an unrelated request.
var replyPool = sync.Pool{
	New: func() interface{} { return make(chan Response, 1) },
}

// shard is one backend plus its queue and worker state.
type shard struct {
	id      int
	b       Batcher
	subs    chan submission
	served  atomic.Int64 // inferences served successfully
	batches atomic.Int64 // device batches issued
	reqs    atomic.Int64 // requests answered
	failed  atomic.Int64 // requests answered with an error
	faults  atomic.Int64 // backend panics recovered (ShardFaultError batches)

	// outstanding counts requests dispatched to the shard and not yet
	// answered; done is the pool's completion stamp of its latest batch (0
	// until it serves one), set from stamp before the batch's replies.
	outstanding atomic.Int64
	done        atomic.Uint64
	stamp       *atomic.Uint64

	// reqScratch backs the []Request view handed to ServeBatch, reused
	// across batches (the Batcher contract forbids retaining it). Only the
	// shard goroutine touches it.
	reqScratch []Request
}

// Pool is the sharded batching front-end.
type Pool struct {
	shards []*shard
	stamp  atomic.Uint64 // completion stamps, one per served batch
	wg     sync.WaitGroup

	// mu fences submitters against Close: submitters hold the read lock
	// across the queue send, Close takes the write lock before closing the
	// queues, so no send can race a close (which would panic).
	mu     sync.RWMutex
	closed bool
}

// NewPool builds a pool over the given backends. maxBatch caps the
// coalesced device batch (a request larger than maxBatch still runs, as its
// own batch); queueDepth bounds how many requests may wait per shard before
// submitters block (use Submit with a context to turn that blocking into
// backpressure with a deadline).
func NewPool(backends []Batcher, maxBatch, queueDepth int) *Pool {
	if len(backends) == 0 {
		panic("serving: pool needs at least one backend")
	}
	if maxBatch <= 0 {
		maxBatch = 1
	}
	if queueDepth <= 0 {
		queueDepth = 64
	}
	p := &Pool{}
	for i, b := range backends {
		s := &shard{id: i, b: b, subs: make(chan submission, queueDepth), stamp: &p.stamp}
		p.shards = append(p.shards, s)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			s.run(maxBatch)
		}()
	}
	return p
}

// Infer submits n count-only inferences and blocks until a shard serves
// them. The request may be coalesced with others queued on the same shard.
func (p *Pool) Infer(n int) (Response, error) {
	return p.Submit(context.Background(), Request{N: n})
}

// Submit enqueues one request and waits for its response. The context
// bounds both the wait for queue space (backpressure on a full shard) and
// the wait for the result; on cancellation after enqueue the inference
// still runs on the shard, only the reply is abandoned. A closed pool
// returns ErrPoolClosed instead of panicking.
func (p *Pool) Submit(ctx context.Context, req Request) (Response, error) {
	if err := req.Validate(); err != nil {
		return Response{}, err
	}
	if err := ctx.Err(); err != nil {
		// Dead on arrival: a cancelled request must never enqueue (the
		// inference would burn device work nobody waits for) and is not a
		// queue-full condition.
		return Response{}, err
	}
	s := p.pick()
	s.outstanding.Add(1)
	reply := replyPool.Get().(chan Response)

	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		s.outstanding.Add(-1)
		replyPool.Put(reply)
		return Response{}, ErrPoolClosed
	}
	select {
	//lint:allow locks the read lock deliberately spans the queue send: Close takes the write lock, so a send in flight fences Close from closing s.subs under us; shard consumers never take p.mu, so the receiver cannot deadlock on it
	case s.subs <- submission{req: req, reply: reply}:
		p.mu.RUnlock()
	default:
		// The queue really is full: block for space or cancellation, and
		// only this path may blame shard backpressure for a cancellation.
		select {
		//lint:allow locks same fence as above: the read lock spans the blocking send so Close cannot close s.subs under us
		case s.subs <- submission{req: req, reply: reply}:
			p.mu.RUnlock()
		case <-ctx.Done():
			p.mu.RUnlock()
			s.outstanding.Add(-1)
			replyPool.Put(reply)
			return Response{}, fmt.Errorf("serving: shard %d queue full: %w", s.id, ctx.Err())
		}
	}

	select {
	case r := <-reply:
		// The receive emptied the buffer; the shard is done with its end.
		replyPool.Put(reply)
		return r, r.Err
	case <-ctx.Done():
		// Abandon the channel: the shard will still deposit a response.
		return Response{}, ctx.Err()
	}
}

// pick returns the shard that can start a request soonest: the one with
// the fewest outstanding requests, then the one whose latest batch
// completed earliest, then the lowest index. Sequential callers therefore
// take the shards in turn.
func (p *Pool) pick() *shard {
	best := p.shards[0]
	bo, bd := best.outstanding.Load(), best.done.Load()
	for _, s := range p.shards[1:] {
		if o, d := s.outstanding.Load(), s.done.Load(); o < bo || (o == bo && d < bd) {
			best, bo, bd = s, o, d
		}
	}
	return best
}

// Stats is an aggregate snapshot of pool activity.
type Stats struct {
	Requests   int64   // requests answered
	Inferences int64   // inferences served successfully
	Batches    int64   // device batches issued
	MeanBatch  float64 // inferences per device batch
	PerShard   []int64 // inferences per shard
	Failed     int64   // requests answered with an error
	Faults     int64   // backend panics recovered (ShardFaultError batches)
}

// Stats returns the aggregate counters.
func (p *Pool) Stats() Stats {
	var st Stats
	for _, s := range p.shards {
		n := s.served.Load()
		st.Inferences += n
		st.Batches += s.batches.Load()
		st.Requests += s.reqs.Load()
		st.Failed += s.failed.Load()
		st.Faults += s.faults.Load()
		st.PerShard = append(st.PerShard, n)
	}
	if st.Batches > 0 {
		st.MeanBatch = float64(st.Inferences) / float64(st.Batches)
	}
	return st
}

// Close drains the shards and stops their goroutines. Requests already
// queued are served; concurrent and later Infer/Submit calls get
// ErrPoolClosed (never a panic). Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	// No submitter can be inside a queue send now: Submit holds the read
	// lock across the send and re-checks closed under it.
	for _, s := range p.shards {
		close(s.subs)
	}
	p.wg.Wait()
}

// run is the shard worker: take one request, opportunistically coalesce
// whatever else is already queued up to maxBatch, serve it all as one
// device batch and fan the results back out.
func (s *shard) run(maxBatch int) {
	var (
		batch    []submission // scratch reused across coalesced batches
		carry    submission   // request deferred because it would overflow maxBatch
		hasCarry bool
	)
	for {
		var first submission
		if hasCarry {
			first, hasCarry = carry, false
			carry = submission{}
		} else {
			var ok bool
			first, ok = <-s.subs
			if !ok {
				return
			}
		}
		batch = append(batch[:0], first)
		total := first.req.Count()
		open := true
	coalesce:
		for total < maxBatch {
			select {
			case more, ok := <-s.subs:
				if !ok {
					open = false
					break coalesce
				}
				if total+more.req.Count() > maxBatch {
					carry, hasCarry = more, true
					break coalesce
				}
				batch = append(batch, more)
				total += more.req.Count()
			default:
				break coalesce
			}
		}

		s.serve(batch, total)
		// Drop payload and reply references so the scratch array does not
		// pin served requests until the slots are next overwritten.
		clear(batch)
		if !open {
			if hasCarry {
				// Serve the deferred request before exiting.
				s.serve(append(batch[:0], carry), carry.req.Count())
			}
			return
		}
	}
}

// callBatcher invokes the backend behind a recover fence: a panicking
// Batcher is converted into a whole-batch ShardFaultError instead of
// killing the shard goroutine (which would strand every queued reply,
// wedge later Submits and deadlock Close on wg.Wait).
func (s *shard) callBatcher(reqs []Request) (res BatchResult) {
	defer func() {
		if r := recover(); r != nil {
			s.faults.Add(1)
			res = BatchResult{Err: &ShardFaultError{
				Shard:     s.id,
				Recovered: r,
				Stack:     string(debug.Stack()),
			}}
		}
	}()
	return s.b.ServeBatch(reqs)
}

// serve runs one coalesced group as a device batch and fans the results
// back out, copying each request's window of the shared prediction slice.
// Per-request errors (ReqErrs) take precedence for their request, then a
// whole-batch Err; only requests that actually receive predictions consume
// a window of res.Preds, and only they count as served inferences. Each
// request's counters are updated before its reply is sent, so a requester
// that reads Stats after its reply sees its own inferences counted.
func (s *shard) serve(batch []submission, total int) {
	reqs := s.reqScratch[:0]
	for _, sub := range batch {
		reqs = append(reqs, sub.req)
	}
	res := s.callBatcher(reqs)
	clear(reqs)
	s.reqScratch = reqs[:0]
	s.batches.Add(1)
	s.reqs.Add(int64(len(batch)))
	s.outstanding.Add(-int64(len(batch)))
	s.done.Store(s.stamp.Add(1))
	off := 0
	for i, sub := range batch {
		n := sub.req.Count()
		r := Response{
			Latency:   res.Latency,
			BatchSize: total,
			Shard:     s.id,
			Coalesced: len(batch),
			Meta:      res.Meta,
		}
		switch {
		case i < len(res.ReqErrs) && res.ReqErrs[i] != nil:
			// This request failed backend validation; its batch-mates are
			// unaffected and it consumes no prediction window.
			r.Err = res.ReqErrs[i]
			s.failed.Add(1)
		case res.Err != nil:
			r.Err = res.Err
			s.failed.Add(1)
		case res.Preds == nil:
			// Timing-only backend: no predictions to slice.
			s.served.Add(int64(n))
		case off+n <= len(res.Preds):
			// Copy: res.Preds is shared by every request on this batch
			// (and possibly reused by the backend); an aliased window
			// would let one requester's writes corrupt another's reads.
			r.Preds = append([]float32(nil), res.Preds[off:off+n]...)
			off += n
			s.served.Add(int64(n))
		default:
			r.Err = fmt.Errorf(
				"serving: shard %d returned %d predictions for a batch of %d; request window [%d,%d) unservable",
				s.id, len(res.Preds), total, off, off+n)
			s.failed.Add(1)
		}
		sub.reply <- r
	}
}
