package sim

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// stagesOf turns raw quick-check values into a stage vector of 1..5
// stages (a zero-stage item occupies nothing and proves nothing).
func stagesOf(raw []uint16) []Stage {
	if len(raw) == 0 {
		raw = []uint16{1}
	}
	if len(raw) > 5 {
		raw = raw[:5]
	}
	out := make([]Stage, len(raw))
	for i, d := range raw {
		out[i] = Stage{Name: "s", Time: time.Duration(d)}
	}
	return out
}

// TestBlockingPipelineOneStageIsSerial: items of one stage reproduce the
// unpipelined timeline exactly, each starting when it has arrived and its
// predecessor has left.
func TestBlockingPipelineOneStageIsSerial(t *testing.T) {
	f := func(gaps, times []uint16) bool {
		var p BlockingPipeline
		var at, serial Time
		for i, g := range gaps {
			at += Time(g)
			d := time.Duration(1)
			if i < len(times) {
				d = time.Duration(times[i])
			}
			serial = Max(at, serial) + d
			if got := p.Push(at, []Stage{{Name: "batch", Time: d}}); got != serial {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBlockingPipelineMatchesAnalyticInterval: under saturation with a
// constant stage vector, the first item takes Pipeline's Latency and every
// later item completes exactly Pipeline's Interval after its predecessor.
func TestBlockingPipelineMatchesAnalyticInterval(t *testing.T) {
	f := func(raw []uint16) bool {
		stages := stagesOf(raw)
		want := Pipeline(stages...)
		var p BlockingPipeline
		prev := p.Push(0, stages)
		if prev != want.Latency {
			return false
		}
		for i := 0; i < 3*len(stages)+4; i++ {
			done := p.Push(0, stages)
			if done-prev != want.Interval {
				return false
			}
			prev = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBlockingPipelineNeverLaterThanSerial: with per-item stage vectors
// and arrivals in order, no item completes later than it would on the
// serial timeline over the same arrivals, and completion never precedes
// the item's own stage sum after its arrival.
func TestBlockingPipelineNeverLaterThanSerial(t *testing.T) {
	f := func(gaps []uint16, raw [][]uint16) bool {
		var p BlockingPipeline
		var at, serial Time
		for i, g := range gaps {
			at += Time(g)
			var stages []Stage
			if i < len(raw) {
				stages = stagesOf(raw[i])
			} else {
				stages = stagesOf(nil)
			}
			sum := Serial(stages...)
			serial = Max(at, serial) + sum
			done := p.Push(at, stages)
			if done > serial || done < at+sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBlockingPipelineBlocks: a slow middle stage holds its upstream
// neighbour, so the next item cannot enter stage 0 until the blocked item
// moves on.
func TestBlockingPipelineBlocks(t *testing.T) {
	var p BlockingPipeline
	stages := []Stage{{Name: "send", Time: 1}, {Name: "emb", Time: 5}, {Name: "read", Time: 1}}
	if done := p.Push(0, stages); done != 7 {
		t.Fatalf("first item done at %v, want 7", done)
	}
	if v := p.Vacant(); v != 1 {
		t.Fatalf("stage 0 vacant at %v, want 1", v)
	}
	// The second item finishes send at 2 but waits in it until emb frees
	// at 6, so stage 0 stays occupied until then.
	if done := p.Push(p.Vacant(), stages); done != 12 {
		t.Fatalf("second item done at %v, want 12", done)
	}
	if v := p.Vacant(); v != 6 {
		t.Fatalf("stage 0 vacant at %v, want 6 (blocked behind emb)", v)
	}
	// A two-stage item leaves the read stage to its neighbours.
	if done := p.Push(p.Vacant(), stages[:2]); done != 16 {
		t.Fatalf("short item done at %v, want 16", done)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative stage time must panic")
		}
	}()
	p.Push(0, []Stage{{Name: "bad", Time: -1}})
}

// laneItems decodes raw fuzz bytes into arrival gaps and stage vectors of
// 1..4 stages, the second of which is a lane stage over up to four lanes
// whose Release+Busy fits the stage time (the LaneLoad contract). Lanes a
// byte leaves idle have zero Busy; lanes whose release byte is odd are
// gate lanes.
func laneItems(raw []byte) (gaps []Time, items [][]Stage) {
	next := func() time.Duration {
		if len(raw) == 0 {
			return 0
		}
		b := raw[0]
		raw = raw[1:]
		return time.Duration(b)
	}
	for len(raw) > 0 && len(items) < 64 {
		gaps = append(gaps, Time(next())*4)
		n := 1 + int(next())%4
		st := make([]Stage, n)
		for k := range st {
			st[k] = Stage{Name: "s", Time: next()}
		}
		if n > 1 {
			lanes := make([]LaneLoad, 1+int(next())%4)
			var reach time.Duration
			for l := range lanes {
				r := next()
				lanes[l] = LaneLoad{Release: r / 4, Busy: next(), Gate: r%2 == 1}
				reach = max(reach, lanes[l].Release+lanes[l].Busy)
			}
			st[1] = Stage{Name: "lanes", Time: reach + next()/8, Lanes: lanes}
		}
		items = append(items, st)
	}
	return gaps, items
}

// withoutLanes strips every stage's lanes, leaving its Time.
func withoutLanes(items [][]Stage) [][]Stage {
	out := make([][]Stage, len(items))
	for i, st := range items {
		out[i] = make([]Stage, len(st))
		for k, s := range st {
			out[i][k] = Stage{Name: s.Name, Time: s.Time}
		}
	}
	return out
}

// withoutGates clears every lane's Gate, leaving its load.
func withoutGates(items [][]Stage) [][]Stage {
	out := make([][]Stage, len(items))
	for i, st := range items {
		out[i] = make([]Stage, len(st))
		for k, s := range st {
			out[i][k] = Stage{Name: s.Name, Time: s.Time}
			for _, ld := range s.Lanes {
				ld.Gate = false
				out[i][k].Lanes = append(out[i][k].Lanes, ld)
			}
		}
	}
	return out
}

// arrivals is how checkLanes times its items.
type arrivals int

const (
	saturated arrivals = iota // at the running sum of the gaps
	spaced                    // each a gap after its predecessor completed
	admitted                  // at the running sum of the gaps, or Vacant if later
)

// checkLanes pushes items through a BlockingPipeline at the given gaps and
// checks the lane-stage properties against the pipeline's own history
// after every push: each lane serves items in order without overlap and
// never before the item's entry plus the lane's release; a lane stage
// holds at most LaneDepth items, counted from their entry into the
// pipeline, and any other stage one; items leave
// every stage in order; no item completes later than in the same pipeline
// without lanes; and the makespan covers every lane's cumulative busy
// time. Gate lanes never move an item: the timeline equals the one with
// every Gate cleared, and Vacant is that pipeline's Vacant or the gate
// lanes' latest end less the latest item's head-stage Time, whichever is
// later. When spaced, the timeline must also equal the lane-less one
// exactly.
func checkLanes(gaps []Time, items [][]Stage, mode arrivals) error {
	var p, plain, ungated BlockingPipeline
	flat, open := withoutLanes(items), withoutGates(items)
	var gateEnd Time              // the latest end of a gate lane
	var entered []Time            // each item's pipeline entry
	left := map[int][]Time{}      // stage -> leave times of the items that used it
	laneEnd := map[[2]int]Time{}  // (stage, lane) -> end of its latest interval
	laneBusy := map[[2]int]Time{} // (stage, lane) -> cumulative busy time
	var at, makespan Time
	for i, st := range items {
		switch mode {
		case spaced:
			at = makespan + gaps[i]
		case admitted:
			at = Max(at+gaps[i], p.Vacant())
		default:
			at += gaps[i]
		}
		done := p.Push(at, st)
		want := plain.Push(at, flat[i])
		if done > want || (mode == spaced && done != want) {
			return fmt.Errorf("item %d: completes at %v, lane-less pipeline %v", i, done, want)
		}
		if got := ungated.Push(at, open[i]); got != done {
			return fmt.Errorf("item %d: completes at %v, %v without gates", i, done, got)
		}
		makespan = Max(makespan, done)
		entry := at
		for k, s := range st {
			hist := left[k]
			depth := 1
			if len(s.Lanes) > 0 {
				depth = LaneDepth
			}
			if k == 0 {
				// The item enters the pipeline once stage 0 and every lane
				// stage it lists have room.
				if n := len(hist); n >= depth {
					entry = Max(entry, hist[n-depth])
				}
				for j, sj := range st {
					if n := len(left[j]); len(sj.Lanes) > 0 && n >= LaneDepth {
						entry = Max(entry, left[j][n-LaneDepth])
					}
				}
			}
			if n := len(hist); n >= depth && entry < hist[n-depth] {
				return fmt.Errorf("item %d entered stage %d at %v before item %d places ahead left at %v",
					i, k, entry, depth, hist[n-depth])
			}
			leave := p.stages[k].left[0]
			if n := len(hist); n > 0 && leave < hist[n-1] {
				return fmt.Errorf("item %d left stage %d at %v before its predecessor at %v", i, k, leave, hist[n-1])
			}
			if k == 0 {
				entered = append(entered, entry)
			}
			if leave < entry+s.Time {
				return fmt.Errorf("item %d: stage %d held it %v, shorter than its time %v", i, k, leave-entry, s.Time)
			}
			left[k] = append(hist, leave)
			for l, ld := range s.Lanes {
				if ld.Busy == 0 {
					continue
				}
				key := [2]int{k, l}
				end := p.stages[k].lanes[l]
				start := end - ld.Busy
				if start < entry+ld.Release || start < laneEnd[key] {
					return fmt.Errorf("item %d: stage %d lane %d runs [%v,%v), entry %v + release %v, lane free at %v",
						i, k, l, start, end, entry, ld.Release, laneEnd[key])
				}
				laneEnd[key] = end
				laneBusy[key] += ld.Busy
				if ld.Gate {
					gateEnd = Max(gateEnd, end)
				}
			}
			entry = leave
		}
		if v, want := p.Vacant(), Max(ungated.Vacant(), gateEnd-st[0].Time); v != want {
			return fmt.Errorf("item %d: vacant at %v, want %v (gate lanes end at %v, head stage %v)",
				i, v, want, gateEnd, st[0].Time)
		}
	}
	// Lane-stage occupancy from pipeline entry: when an item entered, at
	// most LaneDepth-1 earlier users of each lane stage it lists had not
	// yet left that stage.
	seen := map[int]int{} // stage -> users so far
	for i, st := range items {
		for k, s := range st {
			if len(s.Lanes) == 0 {
				continue
			}
			n := seen[k]
			if n >= LaneDepth && entered[i] < left[k][n-LaneDepth] {
				return fmt.Errorf("item %d entered at %v while lane stage %d still held %d items", i, entered[i], k, LaneDepth)
			}
			seen[k] = n + 1
		}
	}
	for key, busy := range laneBusy {
		if makespan < busy {
			return fmt.Errorf("makespan %v below lane %v's busy time %v", makespan, key, busy)
		}
	}
	return nil
}

// TestBlockingPipelineLaneProperties runs checkLanes over random items,
// saturated, widely spaced and admitted at Vacant.
func TestBlockingPipelineLaneProperties(t *testing.T) {
	for _, mode := range []arrivals{saturated, spaced, admitted} {
		f := func(raw []byte) bool {
			gaps, items := laneItems(raw)
			if err := checkLanes(gaps, items, mode); err != nil {
				t.Log(err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("arrivals %d: %v", mode, err)
		}
	}
}

// TestBlockingPipelineLanesOverlapBatches: items whose loads sit on
// different lanes share the lane stage; an item on a busy lane waits for
// the one ahead of it there; and a fifth item enters the pipeline only
// once the first has left the lane stage (depth LaneDepth = 4).
func TestBlockingPipelineLanesOverlapBatches(t *testing.T) {
	if LaneDepth != 4 {
		t.Fatalf("expectations derived for LaneDepth 4, have %d", LaneDepth)
	}
	item := func(a, b time.Duration) []Stage {
		return []Stage{
			{Name: "send", Time: 1},
			{Name: "emb", Time: 12, Lanes: []LaneLoad{{Release: 0, Busy: a}, {Release: 0, Busy: b}}},
			{Name: "read", Time: 1},
		}
	}
	var p BlockingPipeline
	// Sends until 1, lane 0 until 11, tail 2: leaves emb at 13, reads
	// until 14.
	if done := p.Push(0, item(10, 0)); done != 14 {
		t.Fatalf("first item done at %v, want 14", done)
	}
	// Sends 1..2, lane 1 is idle: 2+10 = 12, tail 2, leaves emb at 14
	// behind the first, reads until 15.
	if done := p.Push(0, item(0, 10)); done != 15 {
		t.Fatalf("disjoint-lane item done at %v, want 15", done)
	}
	// The ring has room, so it sends 2..3 while emb holds both; lane 0 is
	// busy until 11: 11+10 = 21, tail 2, leaves at 23, reads until 24.
	if done := p.Push(0, item(10, 0)); done != 24 {
		t.Fatalf("third item done at %v, want 24", done)
	}
	// Sends 3..4; lane 0 is busy until 21: 21+10+2 = 33, reads until 34.
	if done := p.Push(0, item(10, 0)); done != 34 {
		t.Fatalf("fourth item done at %v, want 34", done)
	}
	if v := p.Vacant(); v != 13 {
		t.Fatalf("pipeline vacant at %v, want 13 (when the first item leaves emb)", v)
	}
	// Enters at 13, sends until 14, lane 1 idle since 12: 14+10+2 = 26,
	// but it leaves emb only after the fourth (33) and reads until 35.
	if done := p.Push(0, item(0, 10)); done != 35 {
		t.Fatalf("fifth item done at %v, want 35", done)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a lane outlasting its stage must panic")
		}
	}()
	p.Push(0, []Stage{{Name: "emb", Time: 3, Lanes: []LaneLoad{{Release: 2, Busy: 2}}}})
}

// FuzzBlockingPipelineLanes checks the lane-stage properties of checkLanes
// on arbitrary item streams, saturated, widely spaced and admitted at
// Vacant.
func FuzzBlockingPipelineLanes(f *testing.F) {
	f.Add([]byte{0, 3, 5, 40, 2, 0, 30, 1, 9, 7, 5, 3, 0, 3, 5, 40, 2, 0, 30, 1, 9, 7, 5, 3})
	f.Add([]byte{1, 1, 9, 200, 4, 255, 0, 255, 10, 0, 10, 8, 8, 8})
	f.Fuzz(func(t *testing.T, raw []byte) {
		gaps, items := laneItems(raw)
		for _, mode := range []arrivals{saturated, spaced, admitted} {
			if err := checkLanes(gaps, items, mode); err != nil {
				t.Fatalf("arrivals %d: %v", mode, err)
			}
		}
	})
}

// laneBoundItem decodes raw bytes into one stage vector with exactly one
// lane stage, and an item count. Lane busy times are drawn large and
// releases, tails and the other stages' times small, so most vectors bind
// on a lane, but any combination can occur.
func laneBoundItem(raw []byte) (stages []Stage, n int) {
	next := func() time.Duration {
		if len(raw) == 0 {
			return 0
		}
		b := raw[0]
		raw = raw[1:]
		return time.Duration(b)
	}
	n = 1 + int(next())%48
	stages = make([]Stage, 1+int(next())%4)
	lane := int(next()) % len(stages)
	for k := range stages {
		stages[k] = Stage{Name: "s", Time: next() / 2}
	}
	loads := make([]LaneLoad, 1+int(next())%4)
	var reach time.Duration
	for l := range loads {
		loads[l] = LaneLoad{Release: next() / 8, Busy: 4 * next()}
		reach = max(reach, loads[l].Release+loads[l].Busy)
	}
	stages[lane] = Stage{Name: "lanes", Time: reach + next()/8, Lanes: loads}
	return stages, n
}

// laneCycle returns the cycle time of a saturated BlockingPipeline fed one
// stage vector with a single lane stage over and over, and the busiest
// lane's per-item load:
//
//	λ = max(every other stage's Time, the busiest lane's Busy,
//	        (the stage Times up to and including the lane stage)/LaneDepth)
//
// The first two are the stages and lanes each serving one item at a time;
// the last is the lane stage's LaneDepth places, each held from the item's
// pipeline entry until it leaves the lane stage.
func laneCycle(stages []Stage) (lambda, busiest time.Duration) {
	var upTo time.Duration
	for _, s := range stages {
		upTo += s.Time
		if len(s.Lanes) == 0 {
			lambda = max(lambda, s.Time)
			continue
		}
		for _, ld := range s.Lanes {
			busiest = max(busiest, ld.Busy)
		}
		lambda = max(lambda, busiest, (upTo+LaneDepth-1)/LaneDepth)
	}
	return lambda, busiest
}

// checkBusiestLane pushes n copies of stages into an empty pipeline, all at
// time 0, and checks the bottleneck bound: item i completes by
// i·λ + Serial(stages) (laneCycle's λ), and the makespan covers the
// busiest lane's total load n·Busy. When the lane stage binds — every other
// stage's Time and the lane stage's depth term at most the busiest lane's
// Busy, so λ is that Busy — the two bounds pinch the makespan between the
// busiest lane's total load and that total plus one item's serial time
// (less one Busy). It reports whether the lane stage bound.
//
// The upper bound is a potential argument over the pipeline's event graph:
// give each event of an item the time it would have in an empty pipeline
// (entry into stage k at the sum of the stage Times before k, a lane's
// start at the lane stage's entry plus its Release). Every constraint
// within an item then costs at most its potential difference, and every
// constraint reaching j items back (a stage or lane freeing for the next
// item, the lane stage's LaneDepth places) costs at most j·λ more, so
// item i's completion is at most i·λ past its own potential, Serial.
func checkBusiestLane(stages []Stage, n int) (bound bool, err error) {
	lambda, busiest := laneCycle(stages)
	serial := Serial(stages...)
	var p BlockingPipeline
	var makespan Time
	for i := range n {
		done := p.Push(0, stages)
		if limit := Time(i)*lambda + serial; done > limit {
			return false, fmt.Errorf("item %d of %d completes at %v, past %d·λ(%v) + serial %v = %v", i, n, done, i, lambda, serial, limit)
		}
		makespan = Max(makespan, done)
	}
	total := Time(n) * busiest
	if makespan < total {
		return false, fmt.Errorf("makespan %v below the busiest lane's load %v", makespan, total)
	}
	if lambda == busiest && makespan > total+serial {
		return false, fmt.Errorf("lane-bound makespan %v exceeds the busiest lane's load %v by more than serial %v", makespan, total, serial)
	}
	return lambda == busiest, nil
}

// TestBlockingPipelineBusiestLaneBound: a saturated pipeline of identical
// items whose binding stage is a lane stage runs for the busiest lane's
// total load plus at most one item's serial time; other vectors meet the
// general cycle-time bound. The generator is checked to reach the
// lane-bound case often.
func TestBlockingPipelineBusiestLaneBound(t *testing.T) {
	bound := 0
	f := func(raw []byte) bool {
		stages, n := laneBoundItem(raw)
		b, err := checkBusiestLane(stages, n)
		if err != nil {
			t.Log(err)
			return false
		}
		if b {
			bound++
		}
		return true
	}
	const runs = 1000
	if err := quick.Check(f, &quick.Config{MaxCount: runs}); err != nil {
		t.Fatal(err)
	}
	if bound < runs/4 {
		t.Fatalf("only %d of %d vectors bound on a lane", bound, runs)
	}
}

// TestBlockingPipelineMixedLanesOutrunMeanLoad: the busiest-lane bound
// needs identical items. Items of one lane stage (Time 10, each busy 10 on
// one of two lanes), all pushed at 0, alternate lanes in runs of r.
//
// Runs of three meet the bound at depth four: A's q-th item and B's q-th
// item both run [10q, 10q+10), since every item's entry waits for the item
// four places back, which has left by then (A item 6k+6+j waits for item
// 6k+2+j, which leaves by 10(3k+3+j); B item 6k+3+j for item 6k-1+j, which
// leaves by 10(3k+j)). So neither lane idles, and n items take 10·n/2.
//
// Runs of r ≥ 2·LaneDepth-2 do not: while one lane works through its run,
// the other lane's next run enters only as the item LaneDepth places back
// leaves, so run k+1 starts 10(r-LaneDepth+1) after run k, and its lane
// (run k-1's, done 10r after that run started) is free by then. m runs
// take (m-1)·10(r-LaneDepth+1) + 10r against the busiest lane's 10r·m/2;
// at r = 2·LaneDepth that is a ratio of (LaneDepth+1)/LaneDepth.
func TestBlockingPipelineMixedLanesOutrunMeanLoad(t *testing.T) {
	if LaneDepth != 4 {
		t.Fatalf("expectations derived for LaneDepth 4, have %d", LaneDepth)
	}
	item := func(lane int) []Stage {
		loads := make([]LaneLoad, 2)
		loads[lane].Busy = 10
		return []Stage{{Name: "lanes", Time: 10, Lanes: loads}}
	}
	makespan := func(n, r int) Time {
		var p BlockingPipeline
		var end Time
		for i := range n {
			end = Max(end, p.Push(0, item(i/r%2)))
		}
		return end
	}
	if got, busiest := makespan(60, 3), Time(30*10); got != busiest {
		t.Fatalf("runs of three: makespan %v, want the busiest lane's load %v", got, busiest)
	}
	const r, m = 2 * LaneDepth, 16
	busiest := Time(r*m/2) * 10
	want := Time(m-1)*10*(r-LaneDepth+1) + 10*r
	got := makespan(r*m, r)
	if got != want {
		t.Fatalf("runs of %d: makespan %v, want %v", r, got, want)
	}
	if got <= busiest+10 {
		t.Fatalf("runs of %d: makespan %v within the busiest lane's load %v plus one item", r, got, busiest)
	}
}

// TestBlockingPipelineGateNeverIdlesThroughSend: identical items whose gate
// lane binds, each pushed the moment Vacant allows, keep the gate busy back
// to back: each item finishes its send just as the gate frees, so the gate
// lane never idles through a send. Every item enters the pipeline its send
// time before the gate frees, and no earlier, though the ring has room.
func TestBlockingPipelineGateNeverIdlesThroughSend(t *testing.T) {
	const send, gate = 2, 20
	stages := []Stage{
		{Name: "send", Time: send},
		{Name: "emb", Time: gate, Lanes: []LaneLoad{{Busy: 5}, {Release: 3, Busy: 4}, {Busy: gate, Gate: true}}},
		{Name: "top", Time: 3},
		{Name: "read", Time: 1},
	}
	var p BlockingPipeline
	for i := range 12 {
		at := p.Vacant()
		if want := Time(i) * gate; at != want {
			t.Fatalf("item %d vacant at %v, want %v", i, at, want)
		}
		p.Push(at, stages)
		if end, want := p.stages[1].lanes[2], Time(i+1)*gate+send; end != want {
			t.Fatalf("item %d: gate lane ends at %v, want %v (busy back to back from %v)", i, end, want, Time(send))
		}
	}
	// The same items without the gate are formed as soon as the ring has
	// room, and wait for the bottom lane there.
	ungated := slices.Clone(stages)
	ungated[1].Lanes = []LaneLoad{{Busy: 5}, {Release: 3, Busy: 4}, {Busy: gate}}
	var q BlockingPipeline
	for range 3 {
		q.Push(q.Vacant(), ungated)
	}
	if v := q.Vacant(); v != 3*send {
		t.Fatalf("ungated pipeline vacant at %v, want %v", v, 3*send)
	}
}

// FuzzBlockingPipelineBusiestLane checks checkBusiestLane's bounds on
// arbitrary stage vectors.
func FuzzBlockingPipelineBusiestLane(f *testing.F) {
	f.Add([]byte{40, 2, 1, 8, 30, 1, 0, 60, 8})                 // send, lanes: one lane binds
	f.Add([]byte{20, 3, 1, 4, 9, 6, 3, 3, 50, 0, 20, 9, 40, 0}) // three stages, three lanes
	f.Add([]byte{47, 0, 0, 255, 0, 255, 200})                   // lone lane stage, long release and tail
	f.Fuzz(func(t *testing.T, raw []byte) {
		stages, n := laneBoundItem(raw)
		if _, err := checkBusiestLane(stages, n); err != nil {
			t.Fatal(err)
		}
	})
}
