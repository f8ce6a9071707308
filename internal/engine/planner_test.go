package engine

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"rmssd/internal/evcache"
	"rmssd/internal/flash"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/ssd"
	"rmssd/internal/tensor"
)

// buildSparse generates a deterministic pseudo-random lookup batch.
func buildSparse(seed int64, tables int, lookups int, rows int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	sparse := make([][]int64, tables)
	for t := range sparse {
		for i := 0; i < lookups; i++ {
			sparse[t] = append(sparse[t], rng.Int63n(rows))
		}
	}
	return sparse
}

// diffCase is one device setup of the planner-vs-reference differential.
type diffCase struct {
	name    string
	dynamic bool // page-mapped FTL with every other table page never written
	fault   flash.FaultPlan
	// wantUncorrectable asserts the case really exercises failed reads.
	wantUncorrectable bool
}

var diffCases = []diffCase{
	{name: "linear"},
	{name: "faults-0.02", fault: flash.FaultPlan{Rate: 0.02, Seed: 11}},
	{name: "faults-0.6", fault: flash.FaultPlan{Rate: 0.6, Seed: 5}, wantUncorrectable: true},
	{name: "dynamic-unmapped", dynamic: true},
}

// setupDiff builds a lookup engine over smallRMC1 for one differential case.
// The dynamic case lays the tables out on a linear device (so the store's
// extents and contents are the usual ones) and serves them from a dynamic
// device holding only every other page: the unwritten half takes the
// unmapped zero path.
func setupDiff(t testing.TB, c diffCase) (*LookupEngine, *ssd.Device) {
	t.Helper()
	_, st, eng, dev := setupLookup(t, smallRMC1())
	if c.dynamic {
		dyn := ssd.MustNewDynamic(testGeo())
		ps := int64(dev.PageSize())
		half := 0
		for tbl := 0; tbl < st.Model().Cfg.Tables; tbl++ {
			for _, ext := range st.File(tbl).Extents() {
				for lpn := ext.Addr / ps; lpn < (ext.Addr+ext.Len)/ps; lpn++ {
					if half++; half%2 == 0 {
						dyn.WritePageUntimed(lpn, dev.PeekPage(lpn))
					}
				}
			}
		}
		eng, dev = NewLookupEngine(st, dyn), dyn
	}
	if err := dev.Array().SetFaultPlan(c.fault); err != nil {
		t.Fatal(err)
	}
	return eng, dev
}

// poolOutcome is everything one pool call makes observable.
type poolOutcome struct {
	pooled [][]tensor.Vector
	done   sim.Time
	err    error
}

// runDiffRounds drives batches of 1-4 inferences, each pooled with values
// and then again timing-only from the advanced clock. pool is either the
// planner or the reference.
func runDiffRounds(pool func(at sim.Time, sparses [][][]int64, materialize bool) ([][]tensor.Vector, sim.Time, error)) []poolOutcome {
	var out []poolOutcome
	var at sim.Time
	for n := 1; n <= 4; n++ {
		sparses := make([][][]int64, n)
		for i := range sparses {
			sparses[i] = buildSparse(int64(n*31+i)*7717+1, 8, 40, 2048)
		}
		p, d, err := pool(at, sparses, true)
		out = append(out, poolOutcome{p, d, err})
		_, td, terr := pool(d, sparses, false)
		out = append(out, poolOutcome{nil, td, terr})
		at = td + 1
	}
	return out
}

// The plan appends one lkSlot per lookup, so its size is per-lookup copy
// cost: the prepared flash read stays in the reads side table.
func TestLookupSlotSize(t *testing.T) {
	if got := reflect.TypeFor[lkSlot]().Size(); got > 64 {
		t.Fatalf("lkSlot is %d bytes, want at most 64", got)
	}
}

// TestPlannerMatchesReference is the engine-level differential test: the
// planner must reproduce the reference sequential datapath (refEngine) bit
// for bit — pooled float values, completion times, error class, every die's
// load, engine, device and flash counters, drain time and per-channel bus
// utilization — on a linear device, under fault injection light and heavy
// enough to fail reads, and on a dynamic device whose unmapped pages take
// the zero path.
func TestPlannerMatchesReference(t *testing.T) {
	for _, c := range diffCases {
		refEng, refDev := setupDiff(t, c)
		ref := newRef(refEng)
		var wantLoads [][]sim.LaneLoad
		want := runDiffRounds(func(at sim.Time, sparses [][][]int64, mat bool) ([][]tensor.Vector, sim.Time, error) {
			pooled, done, err := ref.poolBatch(at, sparses, mat)
			wantLoads = append(wantLoads, slices.Clone(ref.loads))
			return pooled, done, err
		})
		if c.wantUncorrectable && refDev.Array().Stats().Uncorrectable == 0 {
			t.Fatalf("%s: no uncorrectable reads; the case does not exercise faults", c.name)
		}
		if c.dynamic && refDev.Array().Stats().VectorReads >= ref.Stats().Lookups {
			t.Fatalf("%s: every lookup read flash; the case does not exercise unmapped pages", c.name)
		}
		if !slices.ContainsFunc(wantLoads[0], func(ld sim.LaneLoad) bool { return ld.Busy > 0 }) {
			t.Fatalf("%s: no die load recorded", c.name)
		}

		eng, dev := setupDiff(t, c)
		var loads [][]sim.LaneLoad
		got := runDiffRounds(func(at sim.Time, sparses [][][]int64, mat bool) ([][]tensor.Vector, sim.Time, error) {
			pooled, done, err := eng.PoolBatch(at, sparses, mat)
			loads = append(loads, slices.Clone(eng.Loads()))
			return pooled, done, err
		})
		for r := range want {
			g, w := got[r], want[r]
			if !slices.Equal(loads[r], wantLoads[r]) {
				t.Fatalf("%s round %d: die loads %v, reference %v", c.name, r, loads[r], wantLoads[r])
			}
			if g.done != w.done {
				t.Fatalf("%s round %d: done %v, reference %v", c.name, r, g.done, w.done)
			}
			if (g.err == nil) != (w.err == nil) || errors.Is(g.err, flash.ErrUncorrectable) != errors.Is(w.err, flash.ErrUncorrectable) {
				t.Fatalf("%s round %d: err %v, reference %v", c.name, r, g.err, w.err)
			}
			sameVectors(t, c.name, g.pooled, w.pooled)
		}
		if eng.Stats() != ref.Stats() {
			t.Fatalf("%s: engine stats %+v, reference %+v", c.name, eng.Stats(), ref.Stats())
		}
		if dev.Stats() != refDev.Stats() {
			t.Fatalf("%s: device stats %+v, reference %+v", c.name, dev.Stats(), refDev.Stats())
		}
		if dev.Array().Stats() != refDev.Array().Stats() {
			t.Fatalf("%s: flash stats %+v, reference %+v", c.name, dev.Array().Stats(), refDev.Array().Stats())
		}
		horizon := refDev.Drained()
		if d := dev.Drained(); d != horizon {
			t.Fatalf("%s: drained %v, reference %v", c.name, d, horizon)
		}
		// Per-resource schedules, not just the aggregate: every bus must
		// carry the same busy time.
		gu, wu := dev.Array().BusUtilization(horizon), refDev.Array().BusUtilization(horizon)
		for ch := range wu {
			if gu[ch] != wu[ch] {
				t.Fatalf("%s: bus[%d] utilization %v, reference %v", c.name, ch, gu[ch], wu[ch])
			}
		}
	}
}

// sameVectors compares pooled batches bit for bit (nil == nil).
func sameVectors(t *testing.T, name string, got, want [][]tensor.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pooled inferences, reference %d", name, len(got), len(want))
	}
	for i := range want {
		for tbl := range want[i] {
			for k := range want[i][tbl] {
				if math.Float32bits(got[i][tbl][k]) != math.Float32bits(want[i][tbl][k]) {
					t.Fatalf("%s: pooled[%d][%d][%d] %v, reference %v", name, i, tbl, k, got[i][tbl][k], want[i][tbl][k])
				}
			}
		}
	}
}

// TestPoolLocalityMatchesReferenceValues checks the planner's locality
// optimisations against the reference: with an EV cache (a quarter of the
// model's vectors, so it evicts) and dedup on, every pooled value is
// bit-identical to the sequential datapath's; only the timeline moves.
func TestPoolLocalityMatchesReferenceValues(t *testing.T) {
	refEng, _ := setupDiff(t, diffCases[0])
	want := runDiffRounds(newRef(refEng).poolBatch)
	eng, _ := setupDiff(t, diffCases[0])
	cfg := smallRMC1()
	eng.SetEVCache(evcache.New(int64(cfg.Tables)*cfg.RowsPerTable*int64(cfg.EVSize())/4, cfg.EVSize()))
	eng.SetDedup(true)
	got := runDiffRounds(eng.PoolBatch)
	for r := range want {
		if got[r].err != nil {
			t.Fatal(got[r].err)
		}
		sameVectors(t, "locality", got[r].pooled, want[r].pooled)
	}
	if eng.Stats().DedupHits == 0 || eng.EVCache().Stats().Hits == 0 {
		t.Fatalf("locality never engaged: %+v %+v", eng.Stats(), eng.EVCache().Stats())
	}
}

// TestLoadsProfile checks Loads against the flash counters of the batch it
// describes: the dies' busy time adds up to one flush per vector read,
// every die's load fits inside the batch, and a repeat of the batch served
// from the EV cache loads the port instead of the dies.
func TestLoadsProfile(t *testing.T) {
	cfg := smallRMC1()
	_, _, eng, dev := setupLookup(t, cfg)
	eng.SetEVCache(evcache.New(int64(cfg.Tables)*cfg.RowsPerTable*int64(cfg.EVSize()), cfg.EVSize()))
	sparse := buildSparse(5, cfg.Tables, cfg.Lookups, cfg.RowsPerTable)
	const at = sim.Time(1000)
	_, done, err := eng.PoolBatch(at, [][][]int64{sparse}, false)
	if err != nil {
		t.Fatal(err)
	}
	loads := eng.Loads()
	geo := dev.Array().Geometry()
	if len(loads) != geo.Channels*geo.DiesPerChannel+1 {
		t.Fatalf("%d loads, want one per die plus the port", len(loads))
	}
	var busy time.Duration
	for d, ld := range loads[:len(loads)-1] {
		if ld.Release < 0 || at+ld.Release+ld.Busy > done {
			t.Fatalf("die %d load %+v outside the batch [%v, %v]", d, ld, at, done)
		}
		busy += ld.Busy
	}
	if want := time.Duration(dev.Array().Stats().VectorReads) * params.Duration(params.FlushCycles); busy != want {
		t.Fatalf("dies busy %v, want %v for %d vector reads", busy, want, dev.Array().Stats().VectorReads)
	}
	if port := loads[len(loads)-1]; port.Busy != 0 {
		t.Fatalf("cold batch loaded the cache port: %+v", port)
	}

	cold := eng.EVCache().Stats().Hits // in-batch repeats merged with misses
	_, done, err = eng.PoolBatch(done, [][][]int64{sparse}, false)
	if err != nil {
		t.Fatal(err)
	}
	loads = eng.Loads()
	port := loads[len(loads)-1]
	hits := eng.EVCache().Stats().Hits - cold
	if hits == 0 || port.Busy != time.Duration(hits)*eng.EVCache().HitOccupancy() {
		t.Fatalf("warm batch: port load %+v for %d hits", port, hits)
	}
	for d, ld := range loads[:len(loads)-1] {
		if ld != (sim.LaneLoad{}) {
			t.Fatalf("warm batch loaded die %d: %+v", d, ld)
		}
	}
}
