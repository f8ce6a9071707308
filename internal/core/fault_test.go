package core

import (
	"errors"
	"math"
	"sync"
	"testing"

	"rmssd/internal/flash"
	"rmssd/internal/sim"
)

// newFaulted builds a small RMC1 device with the given fault plan.
func newFaulted(t *testing.T, plan flash.FaultPlan) *RMSSD {
	t.Helper()
	r, err := New(smallCfg("RMC1"), Options{
		Geometry:  smallGeometry(),
		FaultPlan: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runBatches streams nb batches through the device, returning all
// predictions, the final virtual time and the first error seen.
func runBatches(t *testing.T, r *RMSSD, nb, batch int) ([]float32, sim.Time, error) {
	t.Helper()
	var preds []float32
	var now sim.Time
	var firstErr error
	for i := 0; i < nb; i++ {
		denses, sparses := genInputs(r, batch, uint64(100+i))
		outs, done, _, err := r.InferBatch(now, denses, sparses)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		preds = append(preds, outs...)
		now = done
	}
	return preds, now, firstErr
}

// TestFaultPlanOffIsByteIdentical is the differential acceptance test: with
// the plan disabled (the default zero value) the fault machinery must not
// perturb a single bit of the predictions or the simulated timeline.
func TestFaultPlanOffIsByteIdentical(t *testing.T) {
	base := newSmall(t, "RMC1", 0)
	zero := newFaulted(t, flash.FaultPlan{}) // explicit zero plan

	p1, d1, err1 := runBatches(t, base, 3, 4)
	p2, d2, err2 := runBatches(t, zero, 3, 4)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if d1 != d2 {
		t.Fatalf("faults-off timeline moved: %v vs %v", d1, d2)
	}
	for i := range p1 {
		if math.Float32bits(p1[i]) != math.Float32bits(p2[i]) {
			t.Fatalf("pred %d: %x vs %x", i, math.Float32bits(p1[i]), math.Float32bits(p2[i]))
		}
	}
	fs := zero.Device().Array().Stats()
	if fs.ReadFaults != 0 || fs.ECCRetries != 0 || fs.Uncorrectable != 0 {
		t.Fatalf("disabled plan drew faults: %+v", fs)
	}
}

// TestFaultInjectionSeedStable: the same plan reproduces the same fault
// sequence — predictions, counters and timeline — on every run; a
// different seed draws a different sequence.
func TestFaultInjectionSeedStable(t *testing.T) {
	run := func(seed uint64) ([]float32, sim.Time, flash.Stats) {
		r := newFaulted(t, flash.FaultPlan{Rate: 0.2, Seed: seed})
		preds, done, err := runBatches(t, r, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		return preds, done, r.Device().Array().Stats()
	}
	p1, d1, s1 := run(7)
	p2, d2, s2 := run(7)
	if d1 != d2 || s1.ReadFaults != s2.ReadFaults || s1.ECCRetries != s2.ECCRetries || s1.Uncorrectable != s2.Uncorrectable {
		t.Fatalf("same seed diverged: %v/%+v vs %v/%+v", d1, s1, d2, s2)
	}
	for i := range p1 {
		if math.Float32bits(p1[i]) != math.Float32bits(p2[i]) {
			t.Fatalf("same seed: pred %d differs", i)
		}
	}
	if s1.ReadFaults == 0 || s1.ECCRetries < s1.ReadFaults {
		t.Fatalf("rate 0.2 drew no faults: %+v", s1)
	}
	_, d3, _ := run(8)
	if d3 == d1 {
		t.Fatalf("different seed left the retry timeline at exactly %v", d1)
	}
}

// TestFaultTimelineParallelMatchesSequential extends the repo's determinism
// invariant to the fault path under host parallelism: devices sharing one
// plan and driven from concurrent goroutines (as the serving pools drive
// their shards) must each draw the same fault stream as a device replayed
// alone — no fault RNG or retry state may leak between instances.
func TestFaultTimelineParallelMatchesSequential(t *testing.T) {
	plan := flash.FaultPlan{Rate: 0.2, Seed: 11}
	seq := newFaulted(t, plan)
	ps, ds, errS := runBatches(t, seq, 3, 4)
	if errS != nil {
		t.Fatal(errS)
	}
	ss := seq.Device().Array().Stats()

	const workers = 4
	devs := make([]*RMSSD, workers)
	for i := range devs {
		devs[i] = newFaulted(t, plan)
	}
	preds := make([][]float32, workers)
	dones := make([]sim.Time, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range devs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			preds[i], dones[i], errs[i] = runBatches(t, devs[i], 3, 4)
		}(i)
	}
	wg.Wait()

	for i, r := range devs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if dones[i] != ds {
			t.Fatalf("device %d: parallel faulted timeline %v != sequential %v", i, dones[i], ds)
		}
		for j := range ps {
			if math.Float32bits(ps[j]) != math.Float32bits(preds[i][j]) {
				t.Fatalf("device %d: pred %d differs under parallel replay", i, j)
			}
		}
		sp := r.Device().Array().Stats()
		if ss.ReadFaults != sp.ReadFaults || ss.ECCRetries != sp.ECCRetries || ss.Uncorrectable != sp.Uncorrectable {
			t.Fatalf("device %d: fault counters diverge: %+v vs %+v", i, ss, sp)
		}
	}
}

// TestUncorrectableReadIsTypedAndContained: at a rate high enough to
// exhaust the retry budget, InferBatch surfaces the typed read fault, the
// timeline still advances deterministically (every lookup issues), and the
// device keeps serving.
func TestUncorrectableReadIsTypedAndContained(t *testing.T) {
	r := newFaulted(t, flash.FaultPlan{Rate: 0.97, Seed: 3})
	denses, sparses := genInputs(r, 2, 5)

	_, done, _, err := r.InferBatch(0, denses, sparses)
	if err == nil {
		t.Fatal("rate 0.97 produced no uncorrectable read")
	}
	if !errors.Is(err, ErrReadFault) || !errors.Is(err, flash.ErrUncorrectable) {
		t.Fatalf("err = %v, want ErrReadFault/ErrUncorrectable", err)
	}
	if done <= 0 {
		t.Fatal("faulted batch did not advance the timeline")
	}
	fs := r.Device().Array().Stats()
	if fs.Uncorrectable == 0 || fs.ReadFaults < fs.Uncorrectable {
		t.Fatalf("fault counters inconsistent: %+v", fs)
	}

	// Containment: the same device still serves, and an error never wedges
	// the virtual clock (the next batch starts after the faulted one).
	_, done2, _, err2 := r.InferBatch(done, denses, sparses)
	if err2 == nil {
		t.Fatal("second batch at rate 0.97 produced no fault")
	}
	if done2 <= done {
		t.Fatalf("clock stuck after faulted batch: %v then %v", done, done2)
	}
}

// TestFaultPlanRejected: core.New must refuse an out-of-range rate.
func TestFaultPlanRejected(t *testing.T) {
	_, err := New(smallCfg("RMC1"), Options{
		Geometry:  smallGeometry(),
		FaultPlan: flash.FaultPlan{Rate: 1.5},
	})
	if err == nil {
		t.Fatal("rate 1.5 accepted")
	}
}
