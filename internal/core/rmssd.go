// Package core assembles the full RM-SSD: the simulated flash device, the
// Embedding Lookup Engine and the MLP Acceleration Engine behind the
// MMIO/DMA host interface of Section IV-D.
//
// The host-visible API mirrors the paper's four calls:
//
//	RM_create_table  -> New, NewFromModel (tables are laid out as files over block I/O)
//	RM_open_table    -> New, NewFromModel (extent metadata registered with EV Translator)
//	RM_send_inputs   -> SendInputs
//	RM_read_outputs  -> ReadOutputs
//
// plus InferBatch, which runs one small batch end to end (functional float32
// results and simulated timing). Its Breakdown reports the pipeline stages
// the batch occupied; serving.Replay pipelines consecutive batches over
// them (Section IV-D's system-level pipelining: while the device processes
// batch i, the host pre-sends batch i+1 and reads batch i-1, so throughput
// is governed by the slowest stage). The analytic steady-state helpers
// (StageTimes, SteadyStateQPS) are the oracle that measurement is checked
// against.
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"rmssd/internal/embedding"
	"rmssd/internal/engine"
	"rmssd/internal/evcache"
	"rmssd/internal/flash"
	"rmssd/internal/hostio"
	"rmssd/internal/model"
	"rmssd/internal/obs"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/ssd"
	"rmssd/internal/tensor"
)

// Options configures device construction.
type Options struct {
	// Geometry of the flash array; zero value means Table II defaults.
	Geometry flash.Geometry
	// Design of the MLP engine; DesignSearched is the full RM-SSD.
	Design engine.Design
	// Dynamic selects the page-mapped, garbage-collected FTL instead of
	// the paper's linear map. Tables are then physically written at
	// construction (use reduced table sizes), and the device can take
	// concurrent update writes during inference.
	Dynamic bool
	// Deprecated: ignored; channels are simulated on the calling goroutine.
	Parallel int
	// EVCacheBytes budgets a device-DRAM embedding-vector cache (0, the
	// default, disables it): hot vectors are served from controller DRAM
	// in ~EVCacheHitCycles instead of a C_EV flash read. Predictions are
	// byte-identical with the cache on or off (engine/planner.go).
	EVCacheBytes int64
	// DedupLookups merges identical (table,row) lookups within one device
	// batch into a single vector read whose result fans out. Off by
	// default; value-preserving like the cache.
	DedupLookups bool
	// FaultPlan enables deterministic flash read-fault injection (zero
	// value, the default, disables it): vector reads fail ECC with the
	// plan's seeded per-channel probability, pay bounded retries on the
	// die, and surface as ErrReadFault when uncorrectable. With the plan
	// disabled the timing path is byte-identical to a build without it.
	FaultPlan flash.FaultPlan
	// ArrayDevices, when > 1, asks for a multi-device array that
	// partitions the model's embedding tables across that many member
	// devices. core.New itself assembles exactly one device and rejects
	// it — build the array with array.New (rmssd.NewArray), which consumes
	// these two fields and passes the rest of the Options to every member.
	// They live here so one construction config flows unchanged through
	// the serving stack for single devices and arrays alike.
	ArrayDevices int
	// Partition names the array's (table, row) partition strategy:
	// "range" (contiguous row blocks per device) or "hash" (modular row
	// striping). Empty means "range". Ignored when ArrayDevices <= 1.
	Partition string
}

func (o Options) withDefaults() Options {
	if o.Geometry == (flash.Geometry{}) {
		o.Geometry = flash.DefaultGeometry()
	}
	return o
}

// Registers models the RM Registers exchanged over host MMIO: small control
// parameters such as the number of lookups and the result-status flag.
type Registers struct {
	NumLookups  uint32
	BatchSize   uint32
	ResultReady bool
}

// Breakdown reports where one batch's time went.
type Breakdown struct {
	Send time.Duration // MMIO + DMA input transfer
	Emb  time.Duration // extended embedding stage (flash + Le)
	Bot  time.Duration // extended bottom MLP
	Top  time.Duration // shortened top MLP
	Read time.Duration // status poll + DMA output transfer
	// Lanes are the batch's loads on the units inside its emb stage that
	// consecutive batches share: each flash die (channel-major), the
	// EV-cache port, the Le kernel and the bottom MLP, every member's in
	// member order on an array. Only the searched design, which pipelines,
	// has them.
	Lanes []sim.LaneLoad
	// Overlap is set by the searched design, whose intra-layer
	// decomposition runs the bottom MLP beside the embedding stage and
	// whose stages pipeline across consecutive batches (Section IV-D). The
	// naive design runs every stage after the previous one, batch by batch.
	Overlap bool
}

// Stages returns the pipeline stages the batch occupied, in order: send,
// emb∥bot, top and read with Overlap, or one stage of the whole serial
// batch without it (the naive design does not pipeline, matching
// SteadyStateQPS). A batch that failed in its embedding stage never reached
// the MLP or the read-back (Read is zero), so it occupies send and emb only.
// The emb stage is a lane stage over the batch's Lanes: it holds up to
// sim.LaneDepth batches, each on the dies and kernels it uses.
func (b Breakdown) Stages() []sim.Stage {
	if !b.Overlap {
		return []sim.Stage{{Name: "batch", Time: b.Send + b.Emb + b.Bot + b.Top + b.Read}}
	}
	if b.Read == 0 {
		return []sim.Stage{{Name: "send", Time: b.Send}, {Name: "emb", Time: b.Emb, Lanes: b.Lanes}}
	}
	return []sim.Stage{
		{Name: "send", Time: b.Send},
		{Name: "emb", Time: maxDur(b.Emb, b.Bot), Lanes: b.Lanes},
		{Name: "top", Time: b.Top},
		{Name: "read", Time: b.Read},
	}
}

// Total returns the end-to-end latency of the batch: the sum of its stages.
func (b Breakdown) Total() time.Duration { return sim.Serial(b.Stages()...) }

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// RMSSD is the assembled device.
type RMSSD struct {
	opts   Options
	dev    *ssd.Device
	fs     *hostio.FS
	store  *embedding.Store
	lookup *engine.LookupEngine
	mlp    *engine.MLPEngine
	m      *model.Model
	mmio   *MMIOManager
	reg    Registers
	owners owners // table ownership for the session API

	inferences int64 // total inferences served

	// spanSink, when non-nil, receives one obs.DeviceSpan per batch this
	// device runs (including fault-failed batches; see Batch). The nil
	// check is the entire cost of the disabled state.
	spanSink obs.SpanSink
}

// New builds an RM-SSD hosting the given model: model.Build materialises
// its weights, then NewFromModel assembles the device around them.
func New(cfg model.Config, opts Options) (*RMSSD, error) {
	m, err := model.Build(cfg)
	if err != nil {
		return nil, err
	}
	return NewFromModel(m, opts)
}

// NewFromModel builds an RM-SSD hosting an already-built model: tables are
// created and laid out on the device (RM_create_table) and their extent
// metadata registered with the EV Translator (RM_open_table). The device
// reads m's weights in place and never writes them, so every device of one
// hosted model can share a single m (Rule One places the weights once per
// device; the host keeps one copy). The MLP engine's layer headers and
// kernel schedule stay per device, fitted to the XCVU9P budget; its
// decomposed top L0 halves are views of m's top L0.
func NewFromModel(m *model.Model, opts Options) (*RMSSD, error) {
	if opts.ArrayDevices > 1 {
		return nil, fmt.Errorf("core: ArrayDevices=%d: a multi-device array must be built with array.New", opts.ArrayDevices)
	}
	if m == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	cfg := m.Cfg
	opts = opts.withDefaults()
	var dev *ssd.Device
	var err error
	if opts.Dynamic {
		dev, err = ssd.NewDynamic(opts.Geometry)
	} else {
		dev, err = ssd.New(opts.Geometry)
	}
	if err != nil {
		return nil, err
	}
	const extentBytes = 1 << 20 // file-system extent size
	fs := hostio.NewFS(dev, extentBytes)
	store, err := embedding.NewStore(m, fs)
	if err != nil {
		return nil, err
	}
	mlp, err := engine.NewMLPEngineGeo(m, opts.Design, params.XCVU9P,
		opts.Geometry.Channels, opts.Geometry.DiesPerChannel)
	if err != nil {
		return nil, err
	}
	r := &RMSSD{
		opts:   opts,
		dev:    dev,
		fs:     fs,
		store:  store,
		lookup: engine.NewLookupEngine(store, dev),
		mlp:    mlp,
		m:      m,
		mmio:   NewMMIOManager(),
	}
	if opts.EVCacheBytes > 0 {
		r.lookup.SetEVCache(evcache.New(opts.EVCacheBytes, cfg.EVSize()))
	}
	r.lookup.SetDedup(opts.DedupLookups)
	if err := dev.Array().SetFaultPlan(opts.FaultPlan); err != nil {
		return nil, err
	}
	r.mmio.Poke(RegTableCount, uint64(cfg.Tables))
	return r, nil
}

// Model returns the hosted model.
func (r *RMSSD) Model() *model.Model { return r.m }

// Device returns the underlying SSD (for traffic accounting).
func (r *RMSSD) Device() *ssd.Device { return r.dev }

// MLP returns the MLP Acceleration Engine.
func (r *RMSSD) MLP() *engine.MLPEngine { return r.mlp }

// Lookup returns the Embedding Lookup Engine.
func (r *RMSSD) Lookup() *engine.LookupEngine { return r.lookup }

// Registers returns a copy of the RM Registers.
func (r *RMSSD) Registers() Registers { return r.reg }

// MMIO exposes the interface manager (register window + DMA engine).
func (r *RMSSD) MMIO() *MMIOManager { return r.mmio }

// NBatch returns the device batch size chosen by the kernel search (the
// unit in which large host batches are partitioned, Section IV-D).
func (r *RMSSD) NBatch() int { return r.mlp.NBatch }

// inputBytes returns the DMA payload of one inference's inputs: sparse
// indices (8 bytes each) plus the dense feature vector.
func (r *RMSSD) inputBytes() int64 {
	cfg := r.m.Cfg
	return int64(cfg.Tables)*int64(cfg.Lookups)*8 + int64(cfg.DenseDim)*4
}

// InputBytes returns the host DMA payload of a batch of n inferences'
// inputs on a single device: sparse indices (8 bytes each) plus the dense
// feature vectors.
func (r *RMSSD) InputBytes(n int) int64 { return r.inputBytes() * int64(n) }

// SendInputs models RM_send_inputs for a batch of n inferences: a handful
// of MMIO register writes plus one bulk DMA of indices and dense inputs.
// It returns the completion time.
func (r *RMSSD) SendInputs(at sim.Time, n int) sim.Time {
	return r.sendPayload(at, n, r.InputBytes(n))
}

// sendPayload is SendInputs with an explicit DMA payload size: an array
// member (internal/array) is shipped only the indices it owns (plus the
// dense features on the top-MLP member), so the register dance is identical
// but the bulk transfer is smaller.
func (r *RMSSD) sendPayload(at sim.Time, n int, payload int64) sim.Time {
	r.reg.NumLookups = uint32(r.m.Cfg.Lookups)
	r.reg.BatchSize = uint32(n)
	r.reg.ResultReady = false
	now := r.mmio.WriteReg(at, RegNumLookups, uint64(r.m.Cfg.Lookups))
	now = r.mmio.WriteReg(now, RegBatchSize, uint64(n))
	now = r.mmio.WriteReg(now, RegStatus, StatusBusy)
	return r.mmio.DMA(now, payload)
}

// ReadOutputs models RM_read_outputs: the host polls the status register
// (ready at time at) then DMAs the batch results (at least one 64-byte
// MMIO line).
func (r *RMSSD) ReadOutputs(at sim.Time, n int) sim.Time {
	r.reg.ResultReady = true
	ready := r.mmio.PollReady(at, at, params.MMIORegisterAccess)
	return r.mmio.DMA(ready, r.HostReadBytesPerBatch(n))
}

// HostReadBytesPerBatch returns the read traffic crossing the host
// interface per device batch (Table IV: "it only reads 64 bytes (MMIO
// data-width) returned" for batch 1).
func (r *RMSSD) HostReadBytesPerBatch(n int) int64 {
	bytes := int64(n) * 4
	if bytes < params.MMIODataWidth {
		bytes = params.MMIODataWidth
	}
	return bytes
}

// ValidateInputs checks one batch's shape against the model configuration
// and every sparse index against the translator's extent coverage, without
// touching any device timing state. InferBatch runs it before admitting the
// batch, so a malformed request fails the call — the paper's OS-mediated
// contract (Section IV-D) — and leaves the device's clocks, cache and
// counters exactly as they were.
func (r *RMSSD) ValidateInputs(denses []tensor.Vector, sparses [][][]int64) error {
	n := len(sparses)
	if n == 0 || len(denses) != n {
		return fmt.Errorf("core: batch of %d dense, %d sparse inputs: %w", len(denses), n, ErrShapeMismatch)
	}
	cfg := r.m.Cfg
	for i, d := range denses {
		if len(d) != cfg.DenseDim {
			return fmt.Errorf("core: inference %d: dense dim %d, want %d: %w", i, len(d), cfg.DenseDim, ErrShapeMismatch)
		}
	}
	return r.lookup.ValidateLookups(sparses)
}

// InferBatch runs one device batch end to end through the stage schedule
// (Batch): send inputs, pool embeddings on the lookup engine (simulated
// flash timing), run the remapped MLP, read outputs. Outputs are real
// float32 CTR predictions; the returned Breakdown carries the simulated
// stage times.
//
// Shape and range errors (ErrShapeMismatch, ErrRowOutOfRange) are detected
// before the device sees the batch: the call fails, the device does not.
// With fault injection enabled a lookup can come back uncorrectable
// (ErrReadFault) after the embedding stage ran; the call then fails without
// running the MLP or crossing the host interface, and the batch does not
// count as served.
func (r *RMSSD) InferBatch(at sim.Time, denses []tensor.Vector, sparses [][][]int64) ([]float32, sim.Time, Breakdown, error) {
	if err := r.ValidateInputs(denses, sparses); err != nil {
		return nil, at, Breakdown{}, err
	}
	return r.infer(at, denses, sparses, true)
}

// InferBatchTiming is InferBatch without materialising values.
func (r *RMSSD) InferBatchTiming(at sim.Time, sparses [][][]int64) (sim.Time, Breakdown, error) {
	if err := r.lookup.ValidateLookups(sparses); err != nil {
		return at, Breakdown{}, err
	}
	_, done, bd, err := r.infer(at, nil, sparses, false)
	return done, bd, err
}

// infer drives one validated batch through the stage schedule, computing
// predictions only with values.
func (r *RMSSD) infer(at sim.Time, denses []tensor.Vector, sparses [][][]int64, values bool) ([]float32, sim.Time, Breakdown, error) {
	n := len(sparses)
	b := r.BeginBatch(at, n, r.InputBytes(n))
	pooled, err := b.Pool(sparses, values)
	if err != nil {
		done := b.Fail()
		return nil, done, b.Breakdown(), fmt.Errorf("core: infer batch: %w", err)
	}
	var outs []float32
	if values {
		outs = make([]float32, n)
		for i := range outs {
			outs[i] = r.mlp.Forward(denses[i], pooled[i])
		}
	}
	done := b.Finish(b.EmbDone())
	return outs, done, b.Breakdown(), nil
}

// overlap reports whether the bottom MLP runs beside the embedding stage:
// the searched design's intra-layer decomposition does, the naive design
// runs every stage after the previous one.
func (r *RMSSD) overlap() bool { return r.mlp.Design() != engine.DesignNaive }

// sendCost and readCost price the host-interface stages without touching
// the shared DMA queue (pure functions for the analytic pipeline model).
func (r *RMSSD) sendCost(n int) time.Duration {
	return 3*params.MMIORegisterAccess + DMACost(r.inputBytes()*int64(n))
}

func (r *RMSSD) readCost(n int) time.Duration {
	return params.MMIORegisterAccess + DMACost(r.HostReadBytesPerBatch(n))
}

// StageTimes returns the analytic pipeline stage times for a device batch
// of n (Eq. 1 plus the host interface stages).
func (r *RMSSD) StageTimes(n int) []sim.Stage {
	g := r.opts.Geometry
	emb, bot, top := r.mlp.StageTimes(n, g.Channels, g.DiesPerChannel)
	return []sim.Stage{
		{Name: "send", Time: r.sendCost(n)},
		{Name: "emb", Time: emb},
		{Name: "bot", Time: bot},
		{Name: "top", Time: top},
		{Name: "read", Time: r.readCost(n)},
	}
}

// SteadyStateQPS returns the analytic steady-state throughput for a device
// batch of n. The full RM-SSD pipelines all stages (system-level
// pipelining, Section IV-D); the naive design serialises them.
func (r *RMSSD) SteadyStateQPS(n int) float64 {
	st := r.StageTimes(n)
	if !r.overlap() {
		return sim.Throughput(sim.Serial(st...), n)
	}
	res := sim.Pipeline(st...)
	return sim.Throughput(res.Interval, n)
}

// Latency returns the analytic end-to-end latency of one device batch of n
// (embedding and bottom MLP overlap thanks to intra-layer decomposition).
func (r *RMSSD) Latency(n int) time.Duration {
	st := r.StageTimes(n)
	send, emb, bot, top, read := st[0].Time, st[1].Time, st[2].Time, st[3].Time, st[4].Time
	if !r.overlap() {
		return send + emb + bot + top + read
	}
	return send + maxDur(emb, bot) + top + read
}

// UpdateVector overwrites one embedding vector through the block path: the
// page holding the vector is read, modified and written back — the
// table-refresh operation a production recommender issues continuously.
// On the linear device the page is rewritten in place; on the dynamic
// device it goes out of place with GC. Returns the completion time.
// Dimension and range errors fail the call before any device activity.
func (r *RMSSD) UpdateVector(at sim.Time, table int, row int64, v tensor.Vector) (sim.Time, error) {
	cfg := r.m.Cfg
	if len(v) != cfg.EVDim {
		return at, fmt.Errorf("core: vector dim %d, want %d: %w", len(v), cfg.EVDim, ErrShapeMismatch)
	}
	if !r.lookup.Translator().Covers(table, row) {
		return at, fmt.Errorf("core: update row %d of table %d: %w", row, table, ErrRowOutOfRange)
	}
	addr := r.store.VectorAddr(table, row)
	ps := int64(r.dev.PageSize())
	lpn := addr / ps
	col := int(addr % ps)
	readDone := r.dev.ReadPage(at, lpn)
	buf := r.dev.PeekPage(lpn)
	for i, x := range v {
		binary.LittleEndian.PutUint32(buf[col+4*i:], math.Float32bits(x))
	}
	done := r.dev.WritePage(readDone, lpn, buf)
	// The controller's cached copy is now stale: the next read goes to flash.
	r.lookup.Invalidate(table, row)
	return done, nil
}

// SetSpanSink installs (or, with nil, removes) the per-batch span sink.
// The sink is called synchronously at the end of every inference batch
// with stage spans and counter deltas derived purely from simulated
// state — attaching it changes nothing about timing or predictions.
func (r *RMSSD) SetSpanSink(s obs.SpanSink) { r.spanSink = s }

// Inferences returns the number of inferences served.
func (r *RMSSD) Inferences() int64 { return r.inferences }

// Counters reads the device's deterministic counters: the lookup engine's,
// the EV cache's (zero without one) and the flash array's, with every
// channel that has seen traffic. It is the one place the leaf stats are
// read; spans, rmserve and the reports all start from it.
func (r *RMSSD) Counters() obs.Counters {
	look, fl := r.lookup.Stats(), r.dev.Array().Stats()
	c := obs.Counters{
		Lookups: look.Lookups, DedupHits: look.DedupHits, BytesPooled: look.BytesPooled,
		VectorReads: fl.VectorReads, PageReads: fl.PageReads, ECCRetries: fl.ECCRetries,
		ReadFaults: fl.ReadFaults, Uncorrectable: fl.Uncorrectable, BytesTransferred: fl.BytesTransferred,
	}
	if ev := r.lookup.EVCache(); ev != nil {
		st := ev.Stats()
		c.CacheHits, c.CacheMisses, c.CacheEvictions = st.Hits, st.Misses, st.Evictions
	}
	for i, ch := range r.dev.Array().ChannelIO() {
		if ch != (flash.ChannelCounters{}) {
			c.Channels = append(c.Channels, obs.ChannelIO{
				Channel: i, Reads: ch.Reads, Retries: ch.Retries, Uncorrectable: ch.Uncorrectable,
			})
		}
	}
	return c
}
