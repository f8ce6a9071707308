package sim

import (
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
	stages := []Stage{{"send", 1}, {"emb", 5}, {"read", 1}}
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
	p.Push(0, []Stage{{"bad", -1}})
}
