package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestResourceIdleStart(t *testing.T) {
	r := NewResource("bus")
	start, end := r.Acquire(10, 5)
	if start != 10 || end != 15 {
		t.Fatalf("Acquire(10,5) = [%v,%v), want [10ns,15ns)", start, end)
	}
}

func TestResourceQueueing(t *testing.T) {
	r := NewResource("bus")
	r.Acquire(0, 100)
	start, end := r.Acquire(10, 50) // arrives while busy
	if start != 100 || end != 150 {
		t.Fatalf("queued request = [%v,%v), want [100ns,150ns)", start, end)
	}
	// A late arrival after the resource drained starts immediately.
	start, end = r.Acquire(1000, 1)
	if start != 1000 || end != 1001 {
		t.Fatalf("late request = [%v,%v), want [1000ns,1001ns)", start, end)
	}
}

func TestResourceBusyAndServed(t *testing.T) {
	r := NewResource("die")
	r.Acquire(0, 30)
	r.Acquire(0, 20)
	if r.Busy() != 50 {
		t.Fatalf("Busy = %v, want 50ns", r.Busy())
	}
	if r.Served() != 2 {
		t.Fatalf("Served = %d, want 2", r.Served())
	}
	if got := r.Utilization(100); got != 0.5 {
		t.Fatalf("Utilization(100) = %v, want 0.5", got)
	}
	r.Reset()
	if r.Busy() != 0 || r.Served() != 0 || r.FreeAt() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestResourceNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative duration")
		}
	}()
	NewResource("x").Acquire(0, -1)
}

func TestResourceUtilizationZeroHorizon(t *testing.T) {
	r := NewResource("x")
	r.Acquire(0, 10)
	if got := r.Utilization(0); got != 0 {
		t.Fatalf("Utilization(0) = %v, want 0", got)
	}
}

// The FCFS invariant: scheduling requests in arrival order never produces
// overlapping service intervals, and start >= arrival.
func TestResourceFCFSInvariant(t *testing.T) {
	f := func(arrivalGaps []uint8, durations []uint8) bool {
		r := NewResource("q")
		var at Time
		var prevEnd Time
		n := len(arrivalGaps)
		if len(durations) < n {
			n = len(durations)
		}
		for i := 0; i < n; i++ {
			at += Time(arrivalGaps[i])
			start, end := r.Acquire(at, time.Duration(durations[i]))
			if start < at || start < prevEnd || end != start+time.Duration(durations[i]) {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPoolRoundRobin(t *testing.T) {
	p := NewPool("die", 3)
	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		seen[p.NextRR().Name()]++
	}
	if len(seen) != 3 {
		t.Fatalf("round robin hit %d resources, want 3", len(seen))
	}
	for name, n := range seen {
		if n != 2 {
			t.Fatalf("resource %s served %d, want 2", name, n)
		}
	}
}

func TestPoolEarliestFree(t *testing.T) {
	p := NewPool("ch", 2)
	p.Get(0).Acquire(0, 100)
	if got := p.EarliestFree(); got != p.Get(1) {
		t.Fatalf("EarliestFree = %s, want ch[1]", got.Name())
	}
	p.Get(1).Acquire(0, 200)
	if got := p.EarliestFree(); got != p.Get(0) {
		t.Fatalf("EarliestFree = %s, want ch[0]", got.Name())
	}
}

func TestPoolMaxFreeAtAndBusy(t *testing.T) {
	p := NewPool("ch", 2)
	p.Get(0).Acquire(0, 100)
	p.Get(1).Acquire(0, 250)
	if p.MaxFreeAt() != 250 {
		t.Fatalf("MaxFreeAt = %v, want 250ns", p.MaxFreeAt())
	}
	if p.Busy() != 350 {
		t.Fatalf("Busy = %v, want 350ns", p.Busy())
	}
	p.Reset()
	if p.MaxFreeAt() != 0 || p.Busy() != 0 {
		t.Fatal("Reset did not clear pool")
	}
}

func TestPoolSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty pool")
		}
	}()
	NewPool("x", 0)
}

// Parallel dies behind one bus: with enough dies, throughput becomes
// bus-limited. This is the core mechanism behind vector-grained reads.
func TestDiesBehindSharedBus(t *testing.T) {
	const (
		flush = 2800 // cycles, as in the paper
		trans = 38   // ~128-byte vector transfer
		n     = 64   // requests
	)
	dies := NewPool("die", 4)
	bus := NewResource("bus")
	var done Time
	for i := 0; i < n; i++ {
		die := dies.NextRR()
		_, flushEnd := die.Acquire(0, flush)
		_, end := bus.Acquire(flushEnd, trans)
		if end > done {
			done = end
		}
	}
	// With 4 dies each serving flush back-to-back, the die-side rate is
	// flush/4 = 700 cycles/vector > bus rate 38, so dies dominate. The
	// last wave of 4 flushes completes at n/4*flush and its 4 transfers
	// then serialize on the bus.
	want := Time(n/4*flush + 4*trans)
	if done != want {
		t.Fatalf("completion = %v, want %v", done, want)
	}
}

func TestPipeline(t *testing.T) {
	res := Pipeline(
		Stage{Name: "emb", Time: 100 * time.Microsecond},
		Stage{Name: "bot", Time: 40 * time.Microsecond},
		Stage{Name: "top", Time: 60 * time.Microsecond},
	)
	if res.Latency != 200*time.Microsecond {
		t.Fatalf("Latency = %v, want 200us", res.Latency)
	}
	if res.Interval != 100*time.Microsecond || res.Bottleneck != "emb" {
		t.Fatalf("Interval = %v bottleneck %q, want 100us emb", res.Interval, res.Bottleneck)
	}
}

func TestPipelineEmpty(t *testing.T) {
	res := Pipeline()
	if res.Latency != 0 || res.Interval != 0 || res.Bottleneck != "" {
		t.Fatalf("empty pipeline = %+v, want zero", res)
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(time.Millisecond, 1); got != 1000 {
		t.Fatalf("Throughput(1ms,1) = %v, want 1000", got)
	}
	if got := Throughput(time.Millisecond, 4); got != 4000 {
		t.Fatalf("Throughput(1ms,4) = %v, want 4000", got)
	}
	if got := Throughput(0, 1); got != 0 {
		t.Fatalf("Throughput(0,1) = %v, want 0", got)
	}
}

func TestSerial(t *testing.T) {
	got := Serial(Stage{Name: "a", Time: 3}, Stage{Name: "b", Time: 4})
	if got != 7 {
		t.Fatalf("Serial = %v, want 7ns", got)
	}
}

func TestMaxMin(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Fatal("Max broken")
	}
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Fatal("Min broken")
	}
}

// Property: pipeline interval equals the max stage time and latency the sum.
func TestPipelineProperties(t *testing.T) {
	f := func(times []uint16) bool {
		stages := make([]Stage, len(times))
		var sum time.Duration
		var max time.Duration
		for i, d := range times {
			stages[i] = Stage{Name: "s", Time: time.Duration(d)}
			sum += time.Duration(d)
			if time.Duration(d) > max {
				max = time.Duration(d)
			}
		}
		res := Pipeline(stages...)
		return res.Latency == sum && res.Interval == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
