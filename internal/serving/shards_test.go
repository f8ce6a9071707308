package serving

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rmssd/internal/tensor"
)

// fakeBatcher records the batch sizes it serves and checks the pool's
// single-goroutine-per-shard contract. Count-only inferences predict 0.5;
// payload-carrying inferences predict a value derived from their first
// sparse index, so tests can check each request got its own results back.
type fakeBatcher struct {
	mu      sync.Mutex
	sizes   []int
	inCall  atomic.Bool
	delayed bool // sleep briefly so concurrent submitters pile up
	short   int  // if > 0, return only this many predictions
	buf     []float32
	reuse   bool      // serve every batch from one reused buffer
	gate    chan bool // when set, block in ServeBatch until signalled
}

func (f *fakeBatcher) ServeBatch(reqs []Request) BatchResult {
	if !f.inCall.CompareAndSwap(false, true) {
		panic("serving: ServeBatch reentered on one shard")
	}
	defer f.inCall.Store(false)
	if f.gate != nil {
		<-f.gate
	}
	if f.delayed {
		//lint:allow wallclock deliberate host-side delay so concurrent submitters pile up
		time.Sleep(time.Millisecond)
	}
	n := CountOf(reqs)
	f.mu.Lock()
	f.sizes = append(f.sizes, n)
	f.mu.Unlock()
	preds := make([]float32, 0, n)
	for _, r := range reqs {
		if !r.Explicit() {
			for i := 0; i < r.N; i++ {
				preds = append(preds, 0.5)
			}
			continue
		}
		for _, inf := range r.Sparse {
			preds = append(preds, float32(inf[0][0])/1000)
		}
	}
	if f.short > 0 && f.short < len(preds) {
		preds = preds[:f.short]
	}
	if f.reuse {
		// Model a backend that recycles its output buffer across batches:
		// an aliasing pool would hand requesters windows into memory the
		// next batch overwrites.
		f.buf = append(f.buf[:0], preds...)
		preds = f.buf
	}
	return BatchResult{Preds: preds, Latency: time.Duration(n) * time.Microsecond, Meta: "m"}
}

func TestPoolServesAndCounts(t *testing.T) {
	backends := []Batcher{&fakeBatcher{}, &fakeBatcher{}}
	p := NewPool(backends, 8, 16)
	defer p.Close()

	const reqs = 10
	for i := 0; i < reqs; i++ {
		resp, err := p.Infer(2)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Preds) != 2 || resp.Preds[0] != 0.5 {
			t.Fatalf("preds = %v", resp.Preds)
		}
		if resp.Meta != "m" || resp.BatchSize < 2 || resp.Latency <= 0 {
			t.Fatalf("resp = %+v", resp)
		}
		if resp.Shard < 0 || resp.Shard >= 2 {
			t.Fatalf("shard = %d", resp.Shard)
		}
	}
	st := p.Stats()
	if st.Inferences != reqs*2 || st.Requests != reqs {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.PerShard) != 2 || st.PerShard[0]+st.PerShard[1] != reqs*2 {
		t.Fatalf("per-shard = %v", st.PerShard)
	}
	// Sequential requests find both shards idle and take them in turn.
	if st.PerShard[0] != st.PerShard[1] {
		t.Fatalf("idle shards did not take turns: %v", st.PerShard)
	}
	if _, err := p.Infer(0); err == nil {
		t.Fatal("Infer(0) must error")
	}
}

// TestPoolStatsCountBeforeReply is the regression test for a reply that
// raced its shard's counters: the shard used to send each reply before
// adding the batch's served inferences, so a Stats read right after Infer
// returned (as rmserve's /models does) could miss the batch.
func TestPoolStatsCountBeforeReply(t *testing.T) {
	p := NewPool([]Batcher{&fakeBatcher{}, &fakeBatcher{}}, 8, 16)
	defer p.Close()
	for i := 1; i <= 200; i++ {
		if _, err := p.Infer(2); err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if st.Inferences != int64(2*i) || st.Requests != int64(i) || st.Batches != int64(i) {
			t.Fatalf("after request %d: stats = %+v", i, st)
		}
	}
}

// TestPoolPayloadRequests: explicit requests ride coalesced batches and
// each gets back predictions computed from exactly its own indices.
func TestPoolPayloadRequests(t *testing.T) {
	fb := &fakeBatcher{delayed: true}
	p := NewPool([]Batcher{fb}, 8, 64)
	defer p.Close()

	const clients = 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := Request{Sparse: [][][]int64{{{int64(c)}}, {{int64(c + 100)}}}}
			resp, err := p.Submit(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			if len(resp.Preds) != 2 {
				t.Errorf("client %d: %d preds", c, len(resp.Preds))
				return
			}
			if resp.Preds[0] != float32(c)/1000 || resp.Preds[1] != float32(c+100)/1000 {
				t.Errorf("client %d got someone else's preds: %v", c, resp.Preds)
			}
		}(c)
	}
	wg.Wait()
	if st := p.Stats(); st.Inferences != clients*2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPoolInferAfterClose: regression for the close-then-infer panic —
// submissions after Close must return ErrPoolClosed, not send on a closed
// channel.
func TestPoolInferAfterClose(t *testing.T) {
	p := NewPool([]Batcher{&fakeBatcher{}}, 4, 8)
	if _, err := p.Infer(1); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Infer(1); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Infer after Close: err = %v, want ErrPoolClosed", err)
	}
	if _, err := p.Submit(context.Background(), Request{N: 1}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

// TestPoolCloseRace: concurrent submitters racing Close either get served
// or get ErrPoolClosed — never a panic or a hang.
func TestPoolCloseRace(t *testing.T) {
	p := NewPool([]Batcher{&fakeBatcher{}, &fakeBatcher{}}, 4, 8)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := p.Infer(1); err != nil {
					if !errors.Is(err, ErrPoolClosed) {
						t.Errorf("err = %v", err)
					}
					return
				}
			}
		}()
	}
	p.Close()
	wg.Wait()
}

// TestPoolBackpressure: a full shard queue blocks submitters only until
// their context expires, instead of forever.
func TestPoolBackpressure(t *testing.T) {
	gate := make(chan bool)
	fb := &fakeBatcher{gate: gate}
	p := NewPool([]Batcher{fb}, 1, 1)

	// First request occupies the worker (blocked on the gate); second fills
	// the depth-1 queue; the third must time out at the queue send.
	done := make(chan error, 2)
	go func() {
		_, err := p.Infer(1)
		done <- err
	}()
	// Wait until the worker is inside ServeBatch so the first request is in
	// service, not queued.
	for !fb.inCall.Load() {
		//lint:allow wallclock test polls host-side worker state
		time.Sleep(100 * time.Microsecond)
	}
	go func() {
		_, err := p.Infer(1)
		done <- err
	}()
	// Wait until the second request occupies the queue's only slot.
	for len(p.shards[0].subs) == 0 {
		//lint:allow wallclock test polls host-side queue state
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := p.Submit(ctx, Request{N: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("full queue: err = %v, want DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("err %q does not name the queue", err)
	}
	// Release the worker; the two queued requests must still complete.
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
}

// TestPoolPredsCopied: regression for the aliasing bug — responses must own
// their predictions, so a backend recycling its output buffer (or another
// requester writing through its slice) cannot corrupt them.
func TestPoolPredsCopied(t *testing.T) {
	fb := &fakeBatcher{reuse: true}
	p := NewPool([]Batcher{fb}, 4, 8)
	defer p.Close()

	first, err := p.Submit(context.Background(), Request{Sparse: [][][]int64{{{7}}}})
	if err != nil {
		t.Fatal(err)
	}
	want := first.Preds[0]
	// The next batch overwrites the backend's reused buffer.
	if _, err := p.Submit(context.Background(), Request{Sparse: [][][]int64{{{999}}}}); err != nil {
		t.Fatal(err)
	}
	if first.Preds[0] != want {
		t.Fatalf("first response's preds changed after a later batch: %v != %v (aliased slice)", first.Preds[0], want)
	}
}

// TestPoolShortPredsSurfaced: regression for the silent-nil bug — a backend
// returning fewer predictions than the batch carried must produce an error,
// not a nil Preds with the offset silently advanced.
func TestPoolShortPredsSurfaced(t *testing.T) {
	fb := &fakeBatcher{short: 2}
	p := NewPool([]Batcher{fb}, 8, 8)
	defer p.Close()

	resp, err := p.Infer(3)
	if err == nil {
		t.Fatal("short preds: want an error")
	}
	if resp.Err == nil || !strings.Contains(err.Error(), "2 predictions") {
		t.Fatalf("err = %v", err)
	}
	// A correctly-sized batch on the same shard still works.
	fb.short = 0
	if resp, err := p.Infer(2); err != nil || len(resp.Preds) != 2 {
		t.Fatalf("recovery: %v %v", resp, err)
	}
}

// TestPoolCoalesces checks the consecutive-small-batch pipelining: under a
// concurrent burst, queued requests ride shared device batches, so the
// number of device batches is (almost surely) below the request count and
// no coalesced batch exceeds maxBatch.
func TestPoolCoalesces(t *testing.T) {
	const (
		maxBatch = 8
		clients  = 32
		perEach  = 8
	)
	fb := &fakeBatcher{delayed: true}
	p := NewPool([]Batcher{fb}, maxBatch, clients*perEach)

	var wg sync.WaitGroup
	var coalesced atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perEach; i++ {
				resp, err := p.Infer(1)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Coalesced > 1 {
					coalesced.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	p.Close()

	st := p.Stats()
	if st.Inferences != clients*perEach {
		t.Fatalf("served %d inferences, want %d", st.Inferences, clients*perEach)
	}
	for _, n := range fb.sizes {
		if n > maxBatch {
			t.Fatalf("batch of %d exceeds maxBatch %d", n, maxBatch)
		}
	}
	if st.Batches >= int64(clients*perEach) {
		t.Fatalf("no coalescing: %d batches for %d requests", st.Batches, clients*perEach)
	}
	if coalesced.Load() == 0 {
		t.Fatal("no request observed a coalesced batch")
	}
	if st.MeanBatch <= 1 {
		t.Fatalf("mean batch %v", st.MeanBatch)
	}
}

// TestPoolLargeRequestRunsAlone: a request bigger than maxBatch is not
// split and still runs.
func TestPoolLargeRequestRunsAlone(t *testing.T) {
	fb := &fakeBatcher{}
	p := NewPool([]Batcher{fb}, 4, 8)
	defer p.Close()
	resp, err := p.Infer(9)
	if err != nil {
		t.Fatal(err)
	}
	if resp.BatchSize != 9 || len(resp.Preds) != 9 {
		t.Fatalf("resp = %+v", resp)
	}
}

// TestRequestValidate covers the structural request checks.
func TestRequestValidate(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		ok   bool
	}{
		{"count", Request{N: 3}, true},
		{"zero", Request{}, false},
		{"negative", Request{N: -1}, false},
		{"payload", Request{Sparse: [][][]int64{{{1}}}}, true},
		{"empty payload", Request{Sparse: [][][]int64{}}, false},
		{"dense only", Request{N: 1, Dense: make([]tensor.Vector, 1)}, false},
		{"mismatched dense", Request{Sparse: [][][]int64{{{1}}}, Dense: make([]tensor.Vector, 2)}, false},
		{"matched dense", Request{Sparse: [][][]int64{{{1}}}, Dense: make([]tensor.Vector, 1)}, true},
	}
	for _, c := range cases {
		if err := c.req.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, ok = %v", c.name, err, c.ok)
		}
	}
	if n := (Request{N: 5}).Count(); n != 5 {
		t.Fatalf("count = %d", n)
	}
	if n := (Request{N: 5, Sparse: [][][]int64{{{1}}, {{2}}}}).Count(); n != 2 {
		t.Fatalf("payload count = %d (sparse wins over N)", n)
	}
	if CountOf([]Request{{N: 2}, {Sparse: [][][]int64{{{1}}}}}) != 3 {
		t.Fatal("CountOf")
	}
}
