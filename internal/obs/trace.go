package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// TraceSchemaVersion is stamped into every BatchRecord. Bump it whenever a
// field is removed or changes meaning; the conformance golden pins the
// rendered bytes, so such a change must move the golden deliberately rather
// than silently. Purely additive omitempty fields (the array member spans)
// do not bump: records that never carry them marshal byte-identically to
// schema-1 output, which the golden suite asserts.
const TraceSchemaVersion = 1

// StageSpan is one pipeline stage's occupancy on the virtual timeline,
// half-open in spirit but recorded with inclusive endpoints: the stage ran
// from From to To in simulated time. Durations marshal as integer
// nanoseconds, so the JSON bytes are exact.
type StageSpan struct {
	From time.Duration `json:"from"`
	To   time.Duration `json:"to"`
}

// Len returns the stage's simulated duration.
func (s StageSpan) Len() time.Duration { return s.To - s.From }

// DeviceSpan is the device-side accounting for one inference batch: the
// five pipeline stage spans InferBatch walks (host send, embedding
// gather — coalesce/translate/EV-cache/flash —, bottom MLP, top MLP,
// result read-out) plus the deterministic counters that moved during the
// batch: the device's Counters after it minus those before. Every field is
// derived from simulated state, so two runs of the same seed produce equal
// spans byte for byte.
type DeviceSpan struct {
	Start  time.Duration `json:"start"`
	Done   time.Duration `json:"done"`
	N      int           `json:"n"`
	Failed bool          `json:"failed,omitempty"`

	Send StageSpan `json:"send"`
	Emb  StageSpan `json:"emb"`
	Bot  StageSpan `json:"bot"`
	Top  StageSpan `json:"top"`
	Read StageSpan `json:"read"`

	Counters
}

// Validate checks the span-accounting invariants the property suite pins:
// stages abut in order, the top MLP starts when both its inputs (embedding
// gather and the overlapped bottom MLP) are ready, and the stage lengths
// with overlap accounting reproduce the end-to-end simulated latency. A
// failed batch stops after the embedding stage; its remaining stages must
// be empty at the failure point.
func (d DeviceSpan) Validate() error {
	if d.Send.From != d.Start {
		return fmt.Errorf("obs: span: send starts at %v, batch at %v", d.Send.From, d.Start)
	}
	for _, s := range []struct {
		name string
		span StageSpan
	}{{"send", d.Send}, {"emb", d.Emb}, {"bot", d.Bot}, {"top", d.Top}, {"read", d.Read}} {
		if s.span.To < s.span.From {
			return fmt.Errorf("obs: span: %s runs backwards: %v -> %v", s.name, s.span.From, s.span.To)
		}
	}
	if d.Emb.From != d.Send.To {
		return fmt.Errorf("obs: span: emb starts at %v, send ends at %v", d.Emb.From, d.Send.To)
	}
	if d.Failed {
		fail := d.Emb.To
		for _, s := range []struct {
			name string
			span StageSpan
		}{{"bot", d.Bot}, {"top", d.Top}, {"read", d.Read}} {
			if s.span.From != fail || s.span.To != fail {
				return fmt.Errorf("obs: span: failed batch has non-empty %s stage %v -> %v (failed at %v)",
					s.name, s.span.From, s.span.To, fail)
			}
		}
		if d.Done != fail {
			return fmt.Errorf("obs: span: failed batch done at %v, emb ended at %v", d.Done, fail)
		}
		return nil
	}
	// The bottom MLP overlaps the embedding gather on the searched design
	// (bot.From == emb.From) and follows it on the naive design
	// (bot.From == emb.To); either way the top MLP joins both.
	if d.Bot.From != d.Emb.From && d.Bot.From != d.Emb.To {
		return fmt.Errorf("obs: span: bot starts at %v, expected emb start %v or end %v",
			d.Bot.From, d.Emb.From, d.Emb.To)
	}
	join := d.Emb.To
	if d.Bot.To > join {
		join = d.Bot.To
	}
	if d.Top.From != join {
		return fmt.Errorf("obs: span: top starts at %v, inputs ready at %v", d.Top.From, join)
	}
	if d.Read.From != d.Top.To {
		return fmt.Errorf("obs: span: read starts at %v, top ends at %v", d.Read.From, d.Top.To)
	}
	if d.Done != d.Read.To {
		return fmt.Errorf("obs: span: batch done at %v, read ends at %v", d.Done, d.Read.To)
	}
	total := d.Send.Len() + (d.Top.From - d.Emb.From) + d.Top.Len() + d.Read.Len()
	if got := d.Done - d.Start; got != total {
		return fmt.Errorf("obs: span: stage sum %v != end-to-end %v", total, got)
	}
	return nil
}

// SpanSink receives one DeviceSpan per inference batch. A nil sink is the
// disabled state; emitters must guard with a nil check so the enabled-off
// path costs nothing.
type SpanSink func(DeviceSpan)

// TraceRequest is the serving-side view of one request inside a batch.
type TraceRequest struct {
	ID      int64         `json:"id"`
	Arrival time.Duration `json:"arrival"`
	N       int           `json:"n"`
	Failed  bool          `json:"failed,omitempty"`
}

// MemberSpan is one array member device's span within a batch record: the
// member's index inside its shard's array plus the ordinary span fields,
// inlined.
type MemberSpan struct {
	DeviceIndex int `json:"device"`
	DeviceSpan
}

// BatchRecord is one JSONL trace line: the serving timeline for a batch
// (which requests coalesced into it, when it started service and
// completed) joined with the device's stage spans. A shard backed by a
// multi-device array additionally carries every member's span under Array
// (sorted by member index); Device then holds the top-MLP member's span,
// which covers the batch end to end, so single-device consumers keep
// working unchanged.
type BatchRecord struct {
	Schema   int            `json:"schema"`
	Model    string         `json:"model"`
	Shard    int            `json:"shard"`
	Seq      int64          `json:"seq"`
	Start    time.Duration  `json:"start"`
	Complete time.Duration  `json:"complete"`
	Requests []TraceRequest `json:"requests"`
	Device   *DeviceSpan    `json:"device,omitempty"`
	Array    []MemberSpan   `json:"array,omitempty"`
}

type modelShard struct {
	model string
	shard int
}

// Tracer collects batch records during a replay and feeds the metrics
// registry. The replay harness calls DeviceSink's closure from the shard
// that owns (model, shard) and EndBatch from the same goroutine right
// after the batch completes, so a span deposited by the device is always
// claimed by the matching EndBatch; the mutex only defends cross-shard
// concurrency. Records are keyed (model, shard, seq) with seq assigned in
// per-shard service order — a deterministic order — so WriteJSONL output
// is byte-identical regardless of host scheduling.
type Tracer struct {
	mu           sync.Mutex
	reg          *Registry
	pending      map[modelShard]*DeviceSpan
	pendingArray map[modelShard][]MemberSpan
	seq          map[modelShard]int64
	records      []BatchRecord
}

// NewTracer returns a tracer feeding reg (nil for trace-only collection).
func NewTracer(reg *Registry) *Tracer {
	return &Tracer{
		reg:          reg,
		pending:      make(map[modelShard]*DeviceSpan),
		pendingArray: make(map[modelShard][]MemberSpan),
		seq:          make(map[modelShard]int64),
	}
}

// Registry returns the metrics registry the tracer feeds (may be nil).
func (t *Tracer) Registry() *Registry { return t.reg }

// DeviceSink returns the SpanSink to install on the device backing
// (model, shard). The span is parked until the matching EndBatch claims it.
func (t *Tracer) DeviceSink(model string, shard int) SpanSink {
	key := modelShard{model, shard}
	return func(sp DeviceSpan) {
		t.mu.Lock()
		cp := sp
		t.pending[key] = &cp
		t.mu.Unlock()
	}
}

// ArrayDeviceSink returns the SpanSink to install on member `device` of
// the array backing (model, shard). Each emitted span is appended to the
// batch's member list and also parked as the batch's device span — the
// array emits its top-MLP member last, so the span EndBatch claims as
// Device is always the one covering the batch end to end.
func (t *Tracer) ArrayDeviceSink(model string, shard, device int) SpanSink {
	key := modelShard{model, shard}
	return func(sp DeviceSpan) {
		t.mu.Lock()
		cp := sp
		t.pending[key] = &cp
		t.pendingArray[key] = append(t.pendingArray[key], MemberSpan{DeviceIndex: device, DeviceSpan: sp})
		t.mu.Unlock()
	}
}

// EndBatch closes out one batch on (model, shard): it claims the device
// span parked by DeviceSink (nil if the batch never reached the device)
// and any array member spans parked by ArrayDeviceSink, appends the trace
// record, and observes the request- and device-level metrics.
func (t *Tracer) EndBatch(model string, shard int, reqs []TraceRequest, start, complete time.Duration) {
	t.mu.Lock()
	key := modelShard{model, shard}
	dev := t.pending[key]
	delete(t.pending, key)
	members := t.pendingArray[key]
	delete(t.pendingArray, key)
	sort.Slice(members, func(i, j int) bool { return members[i].DeviceIndex < members[j].DeviceIndex })
	seq := t.seq[key]
	t.seq[key] = seq + 1
	t.records = append(t.records, BatchRecord{
		Schema:   TraceSchemaVersion,
		Model:    model,
		Shard:    shard,
		Seq:      seq,
		Start:    start,
		Complete: complete,
		Requests: append([]TraceRequest(nil), reqs...),
		Device:   dev,
		Array:    members,
	})
	t.mu.Unlock()

	if t.reg == nil {
		return
	}
	shardLabel := strconv.Itoa(shard)
	t.reg.Counter("rmssd_requests_total", L("model", model), L("shard", shardLabel)).Add(int64(len(reqs)))
	latency := t.reg.Histogram("rmssd_request_sim_latency_seconds", L("model", model))
	queue := t.reg.Histogram("rmssd_queue_wait_sim_seconds", L("model", model))
	failed := int64(0)
	for _, rq := range reqs {
		latency.Observe(complete - rq.Arrival)
		queue.Observe(start - rq.Arrival)
		if rq.Failed {
			failed++
		}
	}
	if failed > 0 {
		t.reg.Counter("rmssd_request_failures_total", L("model", model), L("shard", shardLabel)).Add(failed)
	}
	if len(members) > 0 {
		// Array-backed shard: one record per member, each carrying its
		// device label; the unlabeled record would double-count the top
		// member's span.
		for _, m := range members {
			RecordMemberSpan(t.reg, model, shard, m.DeviceIndex, m.DeviceSpan)
		}
	} else if dev != nil {
		RecordDeviceSpan(t.reg, model, shard, *dev)
	}
}

// RecordDeviceSpan observes one device span's stage timings and counter
// deltas into reg. It is the single device-to-metrics mapping: the replay
// tracer calls it from EndBatch, and rmserve's HTTP serving path installs
// a SpanSink that calls it directly.
func RecordDeviceSpan(reg *Registry, model string, shard int, sp DeviceSpan) {
	recordSpan(reg, model, sp, L("model", model), L("shard", strconv.Itoa(shard)))
}

// RecordMemberSpan is RecordDeviceSpan for one member of an array-backed
// shard: every family gains a device label, so per-member series stay
// distinguishable and single-device series stay byte-identical when arrays
// are off.
func RecordMemberSpan(reg *Registry, model string, shard, device int, sp DeviceSpan) {
	recordSpan(reg, model, sp,
		L("model", model), L("shard", strconv.Itoa(shard)), L("device", strconv.Itoa(device)))
}

func recordSpan(reg *Registry, model string, sp DeviceSpan, labels ...Label) {
	reg.Counter("rmssd_batches_total", labels...).Inc()
	if sp.Failed {
		reg.Counter("rmssd_batch_failures_total", labels...).Inc()
	}
	for _, st := range []struct {
		name string
		span StageSpan
	}{{"send", sp.Send}, {"emb", sp.Emb}, {"bot", sp.Bot}, {"top", sp.Top}, {"read", sp.Read}} {
		reg.Histogram("rmssd_stage_sim_seconds", L("model", model), L("stage", st.name)).Observe(st.span.Len())
	}
	sp.Counters.Each(func(name CounterName, v int64) {
		if v != 0 {
			reg.Counter(name.Family, labels...).Add(v)
		}
	})
	for _, ch := range sp.Channels { // only channels that moved (Counters.Sub)
		chLabels := append(append([]Label(nil), labels...), L("channel", strconv.Itoa(ch.Channel)))
		if ch.Reads != 0 {
			reg.Counter("rmssd_channel_reads_total", chLabels...).Add(ch.Reads)
		}
		if ch.Retries != 0 {
			reg.Counter("rmssd_channel_retries_total", chLabels...).Add(ch.Retries)
		}
		if ch.Uncorrectable != 0 {
			reg.Counter("rmssd_channel_uncorrectable_total", chLabels...).Add(ch.Uncorrectable)
		}
	}
}

// Records returns all batch records in canonical (model, shard, seq)
// order.
func (t *Tracer) Records() []BatchRecord {
	t.mu.Lock()
	out := append([]BatchRecord(nil), t.records...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Model != out[j].Model {
			return out[i].Model < out[j].Model
		}
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// WriteJSONL emits the trace as one JSON object per line in canonical
// order. Struct marshaling fixes the field order, durations marshal as
// integer nanoseconds, and records are sorted by (model, shard, seq), so
// equal traces render to equal bytes.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	for _, rec := range t.Records() {
		b, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("obs: marshal trace record: %w", err)
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return fmt.Errorf("obs: write trace record: %w", err)
		}
	}
	return nil
}

// StageBreakdown aggregates a model's trace into total simulated time per
// pipeline stage — the per-stage cycle table replay reports print.
type StageBreakdown struct {
	Batches  int64
	Requests int64
	Failed   int64

	Queue time.Duration // per-request wait from arrival to batch service
	Send  time.Duration
	Emb   time.Duration
	Bot   time.Duration
	Top   time.Duration
	Read  time.Duration
}

// Breakdown sums the traced stage spans for model ("" aggregates all
// models).
func (t *Tracer) Breakdown(model string) StageBreakdown {
	var bd StageBreakdown
	for _, rec := range t.Records() {
		if model != "" && rec.Model != model {
			continue
		}
		bd.Batches++
		bd.Requests += int64(len(rec.Requests))
		for _, rq := range rec.Requests {
			bd.Queue += rec.Start - rq.Arrival
			if rq.Failed {
				bd.Failed++
			}
		}
		if rec.Device != nil {
			bd.Send += rec.Device.Send.Len()
			bd.Emb += rec.Device.Emb.Len()
			bd.Bot += rec.Device.Bot.Len()
			bd.Top += rec.Device.Top.Len()
			bd.Read += rec.Device.Read.Len()
		}
	}
	return bd
}

// Models returns the model names present in the trace, sorted.
func (t *Tracer) Models() []string {
	t.mu.Lock()
	set := make(map[string]bool)
	for _, rec := range t.records {
		set[rec.Model] = true
	}
	t.mu.Unlock()
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
