package core

import (
	"rmssd/internal/obs"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
)

// Batch is one device batch moving through the stage schedule of Section
// IV-D, the one place that schedule is written down:
//
//	send → (emb ∥ bot) → top → read
//
// InferBatch and InferBatchTiming drive it as BeginBatch → Pool → Finish,
// or Fail when the embedding stage fails. A multi-device array
// (internal/array) drives one Batch per member and finishes only its
// top-MLP member, once the gather has landed; the other members Ship their
// partial sums.
//
// The stage timestamps it records are the batch's obs.DeviceSpan, handed to
// the device's span sink when the batch ends, and Breakdown reads the stage
// times off the same timestamps. On the searched design the batch also
// records its loads on the emb stage's lanes — the units consecutive
// batches share inside that stage — which Breakdown hands to the pipeline.
type Batch struct {
	r      *RMSSD
	traced bool
	probe  obs.Counters
	span   obs.DeviceSpan
	lanes  []sim.LaneLoad
}

// BeginBatch starts a batch of n inferences at time at. With a span sink
// installed it snapshots the device's Counters before the send, so the
// span's deltas cover exactly the batch; then it sends the inputs: the
// register writes and a DMA of payload bytes (InputBytes(n) on a single
// device; an array member receives only its share).
func (r *RMSSD) BeginBatch(at sim.Time, n int, payload int64) Batch {
	b := Batch{r: r, traced: r.spanSink != nil}
	if b.traced {
		b.probe = r.Counters()
	}
	sent := r.sendPayload(at, n, payload)
	b.span = obs.DeviceSpan{Start: at, N: n, Send: obs.StageSpan{From: at, To: sent}}
	return b
}

// Pool runs the embedding stage from the end of the send: the lookup
// planner over the batch, floored by the Le kernel. With values it returns
// each inference's pooled vectors; otherwise it accounts timing and traffic
// only. An error is the engine's, unwrapped.
func (b *Batch) Pool(sparses [][][]int64, values bool) ([][]tensor.Vector, error) {
	r := b.r
	from := b.span.Send.To
	pooled, done, err := r.lookup.PoolBatch(from, sparses, values)
	embDone := sim.Max(from, done)
	k := params.Duration(r.mlp.EmbKernelCycles(b.span.N))
	if from+k > embDone {
		embDone = from + k
	}
	b.span.Emb = obs.StageSpan{From: from, To: embDone}
	if r.overlap() {
		// Lanes: the lookup's dies and EV-cache port, the Le kernel, and
		// the bottom MLP, which Finish fills in.
		loads := r.lookup.Loads()
		b.lanes = make([]sim.LaneLoad, len(loads)+2)
		copy(b.lanes, loads)
		b.lanes[len(loads)] = sim.LaneLoad{Busy: k}
	}
	return pooled, err
}

// EmbDone returns when this device's embedding stage ended.
func (b *Batch) EmbDone() sim.Time { return b.span.Emb.To }

// Finish runs the rest of the schedule once the embedding results are ready
// on this device at embReady — EmbDone on a single device, the end of the
// gather on an array's top member — which also ends the emb stage. The
// bottom MLP runs beside the embedding stage from the end of the send on
// the searched design (intra-layer decomposition) and after it on the
// naive one; the top MLP starts when both are done, then the host reads
// the results back. Finish counts the batch as served, emits its span and
// returns its completion time.
func (b *Batch) Finish(embReady sim.Time) sim.Time {
	r, sp := b.r, &b.span
	sp.Emb.To = embReady
	botFrom := sp.Send.To
	if !r.overlap() {
		botFrom = embReady
	}
	sp.Bot = obs.StageSpan{From: botFrom, To: botFrom + params.Duration(r.mlp.BottomStageCycles(sp.N))}
	if b.lanes != nil {
		// The bottom MLP gates admission: its kernels cost a full pass per
		// wave of inferences whatever the batch's size, so a batch formed
		// while it is busy would only wait, and miss the requests that
		// arrive meanwhile.
		b.lanes[len(b.lanes)-1] = sim.LaneLoad{Busy: sp.Bot.Len(), Gate: true}
	}
	joined := sim.Max(embReady, sp.Bot.To)
	sp.Top = obs.StageSpan{From: joined, To: joined + params.Duration(r.mlp.TopStageCycles(sp.N))}
	sp.Read = obs.StageSpan{From: sp.Top.To, To: r.ReadOutputs(sp.Top.To, sp.N)}
	sp.Done = sp.Read.To
	r.inferences += int64(sp.N)
	b.emit()
	return sp.Done
}

// Fail ends a batch whose embedding stage failed: it never reaches the MLP
// or the host interface, is not served, and its remaining stages are empty
// at the failure point. It emits the failed span and returns the failure
// time.
func (b *Batch) Fail() sim.Time {
	b.stopAt(b.span.Emb.To, true)
	return b.span.Done
}

// Ship ends an array member's lookup-only batch: its partial sums leave
// for the top-MLP member and land there at arrival, which ends its span.
func (b *Batch) Ship(arrival sim.Time) { b.stopAt(arrival, false) }

func (b *Batch) stopAt(t sim.Time, failed bool) {
	sp := &b.span
	sp.Emb.To, sp.Done, sp.Failed = t, t, failed
	sp.Bot = obs.StageSpan{From: t, To: t}
	sp.Top, sp.Read = sp.Bot, sp.Bot
	b.emit()
}

// Breakdown reads the batch's stage times off its span, with its lanes.
func (b *Batch) Breakdown() Breakdown {
	sp := &b.span
	return Breakdown{
		Send:    sp.Send.Len(),
		Emb:     sp.Emb.Len(),
		Bot:     sp.Bot.Len(),
		Top:     sp.Top.Len(),
		Read:    sp.Read.Len(),
		Lanes:   b.lanes,
		Overlap: b.r.overlap(),
	}
}

// GatherBreakdown is the Breakdown of one batch spread over several
// devices: members holds an array's member Batches in member order, nil
// for a member the batch never reached, and top is the member that ran
// the send and MLP stages. The emb stage lasts until the last member's
// span ended — the gather, or a failure resolved on every member — which
// is the tail after every member's lanes. Lanes are member-major, each
// member's shifted to the top member's emb start; a member whose send ended
// earlier overlapped that much of its lookups with the top member's send,
// so its lanes are cut to the stage. A one-member array's breakdown is
// top's own.
func GatherBreakdown(top *Batch, members []*Batch) Breakdown {
	bd := top.Breakdown()
	from := top.span.Emb.From
	end := top.span.Emb.To
	for _, m := range members {
		if m != nil && m != top {
			end = sim.Max(end, m.span.Done)
		}
	}
	bd.Emb = end - from
	if top.lanes == nil {
		return bd
	}
	stage := bd.Emb
	if bd.Read != 0 {
		stage = maxDur(bd.Emb, bd.Bot)
	}
	per := len(top.lanes)
	bd.Lanes = make([]sim.LaneLoad, per*len(members))
	for d, m := range members {
		if m == nil {
			continue
		}
		shift := m.span.Emb.From - from
		for l, ld := range m.lanes {
			if ld.Busy == 0 {
				continue
			}
			ld.Release = max(0, ld.Release+shift)
			ld.Busy = min(ld.Busy, stage-ld.Release)
			bd.Lanes[d*per+l] = ld
		}
	}
	return bd
}

// emit fills the span's counters with the deltas since BeginBatch and
// hands it to the sink (nothing without one).
func (b *Batch) emit() {
	if b.traced {
		sp := b.span
		sp.Counters = b.r.Counters().Sub(b.probe)
		b.r.spanSink(sp)
	}
}
