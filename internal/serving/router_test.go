package serving

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// newTestRouter builds a router over the given budget hosting the named
// models over fresh fake batchers (one shard each unless overridden).
func newTestRouter(t *testing.T, budget int, specs ...ModelSpec) *Router {
	t.Helper()
	for i := range specs {
		if specs[i].Backends == nil {
			specs[i].Backends = []Batcher{&fakeBatcher{}}
		}
		if specs[i].MaxBatch == 0 {
			specs[i].MaxBatch = 8
		}
		if specs[i].QueueDepth == 0 {
			specs[i].QueueDepth = 16
		}
	}
	rt, err := NewRouter(specs, budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestRouterResolve(t *testing.T) {
	rt := newTestRouter(t, 0, ModelSpec{Name: "b", Weight: 3}, ModelSpec{Name: "a"})
	if got := rt.Models(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("models = %v, want sorted", got)
	}
	if _, err := rt.Pool("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Pool("zzz"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model err = %v", err)
	}
	if _, err := rt.ModelStats("zzz"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model stats err = %v", err)
	}
	st, err := rt.ModelStats("b")
	if err != nil {
		t.Fatal(err)
	}
	if st.Model != "b" || st.Weight != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st, err := rt.ModelStats("a"); err != nil || st.Weight != 1 {
		t.Fatalf("zero weight: stats %+v, err %v; want weight 1", st, err)
	}
}

// badSpecLists are hosted-model lists that both NewRouter and MultiReplay
// must refuse.
func badSpecLists() []struct {
	name  string
	specs []ModelSpec
} {
	one := func(name string) ModelSpec {
		return ModelSpec{Name: name, Backends: []Batcher{&fakeBatcher{}}, MaxBatch: 1}
	}
	return []struct {
		name  string
		specs []ModelSpec
	}{
		{"empty", nil},
		{"nameless", []ModelSpec{one("")}},
		{"duplicate", []ModelSpec{one("a"), one("b"), one("a")}},
		{"backend-less", []ModelSpec{one("a"), {Name: "b", MaxBatch: 1}}},
		{"max batch 0", []ModelSpec{{Name: "a", Backends: []Batcher{&fakeBatcher{}}}}},
		{"negative weight", []ModelSpec{{Name: "a", Backends: []Batcher{&fakeBatcher{}}, MaxBatch: 1, Weight: -1}}},
	}
}

func TestBadSpecsRefused(t *testing.T) {
	good := []TaggedRequest{{Model: "a", Req: Request{N: 1}}}
	for _, tc := range badSpecLists() {
		t.Run(tc.name, func(t *testing.T) {
			if rt, err := NewRouter(tc.specs, 0); err == nil {
				rt.Close()
				t.Error("NewRouter accepted the list")
			}
			if _, err := MultiReplay(tc.specs, MultiReplayConfig{Rate: 1000}, &taggedSlice{reqs: good}); err == nil {
				t.Error("MultiReplay accepted the list")
			}
		})
	}
}

// TestNewRouterBuildsNothingOnError: a list whose first spec is valid and
// whose second is not is refused before any pool (and so any shard
// goroutine) exists.
func TestNewRouterBuildsNothingOnError(t *testing.T) {
	valid := ModelSpec{Name: "a", Backends: []Batcher{&fakeBatcher{}, &fakeBatcher{}, &fakeBatcher{}, &fakeBatcher{}}, MaxBatch: 4}
	before := runtime.NumGoroutine()
	rt, err := NewRouter([]ModelSpec{valid, {Name: "b", MaxBatch: 4}}, 0)
	after := runtime.NumGoroutine()
	if err == nil {
		rt.Close()
		t.Fatal("NewRouter accepted a backend-less second spec")
	}
	// Goroutines left over from earlier tests can only exit meanwhile, so
	// any rise means NewRouter started shard workers.
	if after > before {
		t.Fatalf("goroutines %d -> %d: a refused list started shard workers", before, after)
	}
}

// TestRegistryCloseRefusesLateWork: Close is idempotent, and a submission
// after it fails with ErrPoolClosed.
func TestRegistryCloseRefusesLateWork(t *testing.T) {
	rt, err := NewRouter([]ModelSpec{{Name: "a", Backends: []Batcher{&fakeBatcher{}}, MaxBatch: 4, QueueDepth: 4}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	rt.Close() // idempotent
	if _, err := rt.Submit(context.Background(), "a", Request{N: 1}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("submit after close err = %v", err)
	}
}

func TestRouterRoutesByModel(t *testing.T) {
	fa, fb := &fakeBatcher{}, &fakeBatcher{}
	rt := newTestRouter(t, 0,
		ModelSpec{Name: "a", Backends: []Batcher{fa}},
		ModelSpec{Name: "b", Backends: []Batcher{fb}},
	)
	for i := 0; i < 3; i++ {
		if _, err := rt.Submit(context.Background(), "a", Request{N: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Submit(context.Background(), "b", Request{N: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit(context.Background(), "nope", Request{N: 1}); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model err = %v", err)
	}
	sa, err := rt.ModelStats("a")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := rt.ModelStats("b")
	if err != nil {
		t.Fatal(err)
	}
	if sa.Pool.Inferences != 6 || sb.Pool.Inferences != 1 {
		t.Fatalf("inferences: a=%d b=%d", sa.Pool.Inferences, sb.Pool.Inferences)
	}
	if sa.Submitted != 3 || sb.Submitted != 1 {
		t.Fatalf("submitted: a=%d b=%d", sa.Submitted, sb.Submitted)
	}
	if sa.MeanLatency <= 0 || sa.MaxLatency < sa.MeanLatency {
		t.Fatalf("latency stats: %+v", sa)
	}
}

// orderBatcher records the model name at ServeBatch entry. With a budget
// of 1 the router serializes ServeBatch calls in admission order, so the
// recorded sequence is exactly the WRR grant schedule.
type orderBatcher struct {
	fakeBatcher
	name  string
	mu    *sync.Mutex
	order *[]string
}

func (o *orderBatcher) ServeBatch(reqs []Request) BatchResult {
	o.mu.Lock()
	*o.order = append(*o.order, o.name)
	o.mu.Unlock()
	return o.fakeBatcher.ServeBatch(reqs)
}

// TestRouterWRRAdmission: with a budget of 1 and every submission queued
// behind a gated batch, freed slots must be granted in weight proportion
// (2:1 for weights 2 and 1), deterministically interleaved.
func TestRouterWRRAdmission(t *testing.T) {
	gate := make(chan bool)
	var mu sync.Mutex
	var order []string
	ga := &orderBatcher{fakeBatcher: fakeBatcher{gate: gate}, name: "heavy", mu: &mu, order: &order}
	gb := &orderBatcher{fakeBatcher: fakeBatcher{gate: gate}, name: "light", mu: &mu, order: &order}
	rt := newTestRouter(t, 1,
		ModelSpec{Name: "heavy", Backends: []Batcher{ga}, Weight: 2},
		ModelSpec{Name: "light", Backends: []Batcher{gb}, Weight: 1},
	)

	// Occupy the single budget slot with a gated submission (it records
	// "heavy" first, then blocks in ServeBatch until the gate opens).
	var wg sync.WaitGroup
	submit := func(model string) {
		defer wg.Done()
		if _, err := rt.Submit(context.Background(), model, Request{N: 1}); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go submit("heavy")
	waitFor(t, func() bool { return rt.InFlight() == 1 })

	// Park 6 heavy and 3 light submissions behind the budget, in order.
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go submit("heavy")
		waitFor(t, func() bool { return queuedWaiters(rt) == i+1 })
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go submit("light")
		waitFor(t, func() bool { return queuedWaiters(rt) == 7+i })
	}

	// Open the gate: ServeBatch calls now return immediately, and the
	// single-slot budget serializes them in WRR grant order.
	close(gate)
	wg.Wait()

	// Smooth WRR at weights 2:1 over full queues cycles heavy,light,heavy;
	// once the three light waiters drain, the remaining heavies run out.
	want := []string{
		"heavy", // the occupier
		"heavy", "light", "heavy", "heavy", "light", "heavy", "heavy", "light", "heavy",
	}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
	hs, err := rt.ModelStats("heavy")
	if err != nil {
		t.Fatal(err)
	}
	if hs.Waited != 6 {
		t.Fatalf("heavy waited = %d, want 6", hs.Waited)
	}
	if rt.InFlight() != 0 {
		t.Fatalf("in flight = %d after drain", rt.InFlight())
	}
}

// queuedWaiters counts submissions parked in the router's admission queues.
func queuedWaiters(rt *Router) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := 0
	for _, q := range rt.waitq {
		n += len(q)
	}
	return n
}

// waitFor polls the condition with a generous deadline; these tests
// synchronise on queue states, not timing.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		//lint:allow wallclock test-side polling for a concurrent queue state
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}

// TestRouterAdmissionCancellation: a context cancelled while queued for
// admission must error out without leaking the budget slot.
func TestRouterAdmissionCancellation(t *testing.T) {
	gate := make(chan bool)
	rt := newTestRouter(t, 1, ModelSpec{Name: "m", Backends: []Batcher{&fakeBatcher{gate: gate}}})

	var occupied sync.WaitGroup
	occupied.Add(1)
	go func() {
		defer occupied.Done()
		if _, err := rt.Submit(context.Background(), "m", Request{N: 1}); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, func() bool { return rt.InFlight() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := rt.Submit(ctx, "m", Request{N: 1})
		errc <- err
	}()
	waitFor(t, func() bool { return queuedWaiters(rt) == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled admission err = %v", err)
	}
	if queuedWaiters(rt) != 0 {
		t.Fatal("cancelled waiter left in queue")
	}
	close(gate)
	occupied.Wait()
	// The slot must come back: a fresh submission succeeds.
	if _, err := rt.Submit(context.Background(), "m", Request{N: 1}); err != nil {
		t.Fatal(err)
	}
	if rt.InFlight() != 0 {
		t.Fatalf("in flight = %d after drain", rt.InFlight())
	}
}

// TestRouterConcurrentModelsAndClose is the race-coverage check the issue
// asks for: concurrent submits to different models racing the router's
// Close must never panic — they either serve or fail with ErrPoolClosed.
// Run with -race.
func TestRouterConcurrentModelsAndClose(t *testing.T) {
	for round := 0; round < 4; round++ {
		names := []string{"a", "b", "c"}
		specs := make([]ModelSpec, len(names))
		for i, n := range names {
			specs[i] = ModelSpec{
				Name:     n,
				Backends: []Batcher{&fakeBatcher{}, &fakeBatcher{}},
				MaxBatch: 8, QueueDepth: 8, Weight: i + 1,
			}
		}
		rt, err := NewRouter(specs, 2)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					_, err := rt.Submit(context.Background(), names[(c+i)%len(names)], Request{N: 1})
					if err != nil && !errors.Is(err, ErrPoolClosed) {
						t.Errorf("submit: %v", err)
						return
					}
				}
			}(c)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Close()
		}()
		wg.Wait()
		// Post-close: all submissions fail cleanly, stats still readable.
		if _, err := rt.Submit(context.Background(), "a", Request{N: 1}); !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("post-close err = %v", err)
		}
		for _, name := range rt.Models() {
			st, err := rt.ModelStats(name)
			if err != nil {
				t.Fatal(err)
			}
			if st.Rejected > st.Submitted {
				t.Fatalf("counters inconsistent: %+v", st)
			}
		}
	}
}

// TestWRRSchedule pins the smooth-WRR schedule itself: weights 3:1:1 over
// always-eligible candidates produce the canonical interleaving.
func TestWRRSchedule(t *testing.T) {
	w := newWRR([]int{3, 1, 1})
	var got []int
	for i := 0; i < 10; i++ {
		got = append(got, w.pick(func(int) bool { return true }))
	}
	want := []int{0, 1, 0, 2, 0, 0, 1, 0, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule = %v, want %v", got, want)
		}
	}
	counts := map[int]int{}
	for _, g := range got {
		counts[g]++
	}
	if counts[0] != 6 || counts[1] != 2 || counts[2] != 2 {
		t.Fatalf("proportions = %v", counts)
	}
	if w.pick(func(int) bool { return false }) != -1 {
		t.Fatal("no eligible candidates must yield -1")
	}
	// Non-positive weights count as 1.
	w2 := newWRR([]int{0, -5})
	a := w2.pick(func(int) bool { return true })
	b := w2.pick(func(int) bool { return true })
	if a == b {
		t.Fatalf("degenerate weights did not alternate: %d then %d", a, b)
	}
}

// ExampleRouter demonstrates multi-model dispatch (doc example).
func ExampleRouter() {
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("serving: example router: %v", err))
		}
	}
	rt, err := NewRouter([]ModelSpec{
		{Name: "ctr", Backends: []Batcher{&fakeBatcher{}}, MaxBatch: 8, QueueDepth: 8, Weight: 2},
		{Name: "ranker", Backends: []Batcher{&fakeBatcher{}}, MaxBatch: 8, QueueDepth: 8},
	}, 4)
	must(err)
	defer rt.Close()
	resp, err := rt.Submit(context.Background(), "ctr", Request{N: 2})
	must(err)
	fmt.Println(len(resp.Preds), rt.Models())
	// Output: 2 [ctr ranker]
}
