package sim

import (
	"fmt"
	"time"
)

// Stage describes one stage of a processing pipeline by the time a single
// work item occupies it.
type Stage struct {
	Name string
	Time time.Duration
	// Lanes, when set, make the stage a lane stage of BlockingPipeline:
	// the item's loads on the stage's independent units (flash dies,
	// kernels, ports), by position, so lane l of one item and lane l of
	// the next are the same unit. Pipeline ignores them.
	Lanes []LaneLoad
}

// LaneLoad is one item's use of one lane of a lane stage: the lane starts
// Release after the item entered the stage and is then busy for Busy. A
// lane with zero Busy is one the item never touched. Release+Busy never
// exceeds the stage's Time: the rest of Time is the item's tail, the work
// that follows its last lane.
//
// Gate marks the lane as the pipeline's admission gate: Vacant waits until
// the gate lane's last finish less the latest item's head-stage Time, so an
// item formed at Vacant with as long a head stage ends it just as the gate
// frees.
type LaneLoad struct {
	Release time.Duration
	Busy    time.Duration
	Gate    bool
}

// LaneDepth is how many items a lane stage of BlockingPipeline holds at
// once. The device's EV Sum is a ring of four buffers: batch b+3 may start
// its reads while batches b..b+2 still drain, but not before batch b-1 has
// left.
const LaneDepth = 4

// PipelineResult summarises the steady-state behaviour of a linear pipeline.
type PipelineResult struct {
	// Latency is the end-to-end time of one item traversing all stages.
	Latency time.Duration
	// Interval is the steady-state initiation interval, i.e. the
	// bottleneck stage time.
	Interval time.Duration
	// Bottleneck is the name of the slowest stage.
	Bottleneck string
}

// Pipeline computes the steady-state latency and initiation interval of a
// linear pipeline whose stages all overlap across consecutive items. This is
// the model behind the paper's system-level pipelining (Section IV-D): while
// the device processes batch i, the host pre-sends batch i+1's inputs and
// reads batch i-1's outputs, so steady-state throughput is governed by the
// slowest stage alone.
func Pipeline(stages ...Stage) PipelineResult {
	var res PipelineResult
	for _, s := range stages {
		res.Latency += s.Time
		if s.Time > res.Interval {
			res.Interval = s.Time
			res.Bottleneck = s.Name
		}
	}
	return res
}

// BlockingPipeline is the event-timeline counterpart of Pipeline: a linear
// pipeline whose stages each hold at most one item, with no buffer between
// them (a blocking flow shop). An item that finishes a stage moves on only
// once the next stage has room, and it keeps its current stage occupied
// while it waits. Items enter in order, each with its own stage times, so
// the timeline follows measured per-item costs where Pipeline takes one
// analytic vector; Pipeline stays its oracle: with constant stage times
// the steady-state interval is Pipeline's Interval, and items of a single
// stage reproduce the Serial timeline.
//
// A stage the item reports with Lanes is a lane stage, which LaneDepth
// items can share. The item claims its place there when it enters the
// pipeline, so it enters stage 0 only once the item LaneDepth places ahead
// has left the lane stage: the device's buffer ring receives a batch's
// inputs and pools its vectors, so a batch cannot be sent before a buffer
// is free, and stages ahead of the lane stage never hold a batch that
// only waits for one. Each of the item's lanes starts at the later of its
// entry into the lane stage plus the lane's Release and the lane's finish
// for the previous item that used it, and the item completes the stage its
// tail after its last lane finishes. An item that meets idle lanes
// therefore takes exactly the stage's Time, as in a stage without lanes,
// and a saturated lane stage is bounded by each lane's own load rather
// than by every item's busiest lane. Items leave every stage in order.
// A gate lane (LaneLoad.Gate) changes no item's timeline once pushed; it
// only holds back Vacant, so a caller that forms its next item at Vacant
// does not form it while the gate is still busy.
//
// An item occupies only the stages it lists, so a shorter item (one that
// failed early, or a backend that reports a single stage) leaves the later
// stages to its neighbours. The zero value is an empty pipeline, idle at
// the epoch.
type BlockingPipeline struct {
	stages []stageState
	head   time.Duration // the latest item's stage-0 Time
	gate   Time          // the latest finish of a gate lane
}

// stageState is one stage's history: when its latest items left it, most
// recent first, and when each of its lanes last finished (nil until the
// stage serves as a lane stage).
type stageState struct {
	left  [LaneDepth]Time
	lanes []Time
}

// Vacant returns when the pipeline can take its next item: stage 0 has
// released every item it took, every stage that has served as a lane
// stage has room, and an item with the latest item's head-stage Time
// would end its head stage no earlier than the gate lane frees.
func (p *BlockingPipeline) Vacant() Time {
	if len(p.stages) == 0 {
		return 0
	}
	t := Max(p.stages[0].left[0], p.gate-p.head)
	for _, st := range p.stages[1:] {
		if st.lanes != nil {
			t = Max(t, st.left[LaneDepth-1])
		}
	}
	return t
}

// admits returns when stage k has room for an item that occupies it as s.
func (p *BlockingPipeline) admits(k int, s Stage) Time {
	if len(s.Lanes) > 0 {
		return p.stages[k].left[LaneDepth-1]
	}
	return p.stages[k].left[0]
}

// Push enters an item into stage 0 at at, or once stage 0 and every lane
// stage the item lists have room if that is later, walks it through its
// stages in order and returns when it leaves the last one.
func (p *BlockingPipeline) Push(at Time, stages []Stage) Time {
	for len(p.stages) < len(stages) {
		p.stages = append(p.stages, stageState{})
	}
	if len(stages) == 0 {
		return Max(at, p.Vacant())
	}
	p.head = stages[0].Time
	t := Max(at, p.admits(0, stages[0]))
	for k, s := range stages[1:] {
		if len(s.Lanes) > 0 {
			t = Max(t, p.admits(k+1, s))
		}
	}
	for k, s := range stages {
		if s.Time < 0 {
			panic(fmt.Sprintf("sim: negative stage time %v on %s", s.Time, s.Name))
		}
		st := &p.stages[k]
		done := t + s.Time
		if len(s.Lanes) > 0 {
			done = st.runLanes(t, s, &p.gate)
		}
		// In order: the item leaves after its predecessor, and only once
		// the next stage has room.
		t = Max(done, st.left[0])
		if k+1 < len(stages) {
			t = Max(t, p.admits(k+1, stages[k+1]))
		}
		copy(st.left[1:], st.left[:LaneDepth-1])
		st.left[0] = t
	}
	return t
}

// runLanes schedules an item that entered lane stage s at entry on the
// stage's lanes, moves gate to the finish of each gate lane it ran, and
// returns when it completes the stage.
func (st *stageState) runLanes(entry Time, s Stage, gate *Time) Time {
	for len(st.lanes) < len(s.Lanes) {
		st.lanes = append(st.lanes, 0)
	}
	last, reach := entry, time.Duration(0)
	for l, ld := range s.Lanes {
		if ld.Release < 0 || ld.Busy < 0 || ld.Release+ld.Busy > s.Time {
			panic(fmt.Sprintf("sim: lane %d of %s: release %v + busy %v outside stage time %v",
				l, s.Name, ld.Release, ld.Busy, s.Time))
		}
		if ld.Busy == 0 {
			continue
		}
		end := Max(entry+ld.Release, st.lanes[l]) + ld.Busy
		st.lanes[l] = end
		if ld.Gate {
			*gate = Max(*gate, end)
		}
		last = Max(last, end)
		reach = max(reach, ld.Release+ld.Busy)
	}
	return last + s.Time - reach
}

// Throughput converts a per-item interval into items/second.
func Throughput(interval time.Duration, itemsPerInterval int) float64 {
	if interval <= 0 {
		return 0
	}
	return float64(itemsPerInterval) / interval.Seconds()
}

// Serial sums stage times: the latency (and interval) of an unpipelined
// implementation.
func Serial(stages ...Stage) time.Duration {
	var total time.Duration
	for _, s := range stages {
		total += s.Time
	}
	return total
}
