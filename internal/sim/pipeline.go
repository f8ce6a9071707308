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
}

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
// once the next stage has released its predecessor, and it keeps its
// current stage occupied while it waits. Items enter in order, each with
// its own stage times, so the timeline follows measured per-item costs
// where Pipeline takes one analytic vector; Pipeline stays its oracle: with
// constant stage times the steady-state interval is Pipeline's Interval,
// and items of a single stage reproduce the Serial timeline.
//
// An item occupies only the stages it lists, so a shorter item (one that
// failed early, or a backend that reports a single stage) leaves the later
// stages to its neighbours. The zero value is an empty pipeline, idle at
// the epoch.
type BlockingPipeline struct {
	vacated []Time // when each stage last released its item
}

// Vacant returns when stage 0 can take its next item.
func (p *BlockingPipeline) Vacant() Time {
	if len(p.vacated) == 0 {
		return 0
	}
	return p.vacated[0]
}

// Push enters an item into stage 0 at at, or when stage 0 is vacated if
// that is later, walks it through its stages in order and returns when it
// leaves the last one.
func (p *BlockingPipeline) Push(at Time, stages []Stage) Time {
	for len(p.vacated) < len(stages) {
		p.vacated = append(p.vacated, 0)
	}
	t := Max(at, p.Vacant())
	for k, s := range stages {
		if s.Time < 0 {
			panic(fmt.Sprintf("sim: negative stage time %v on %s", s.Time, s.Name))
		}
		t += s.Time
		if k+1 < len(stages) {
			t = Max(t, p.vacated[k+1])
		}
		p.vacated[k] = t
	}
	return t
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
