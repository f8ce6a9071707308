// Package core assembles the full RM-SSD: the simulated flash device, the
// Embedding Lookup Engine and the MLP Acceleration Engine behind the
// MMIO/DMA host interface of Section IV-D.
//
// The host-visible API mirrors the paper's four calls:
//
//	RM_create_table  -> New (tables are laid out as files over block I/O)
//	RM_open_table    -> New (extent metadata registered with EV Translator)
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
	// Part is the FPGA budget; zero value means XCVU9P.
	Part params.FPGAPart
	// ExtentBytes controls file-system extent size (default 1 MiB).
	ExtentBytes int64
	// Dynamic selects the page-mapped, garbage-collected FTL instead of
	// the paper's linear map. Tables are then physically written at
	// construction (use reduced table sizes), and the device can take
	// concurrent update writes during inference.
	Dynamic bool
	// Parallel is the number of host goroutines used to simulate the
	// flash channels of one lookup batch. 0 means GOMAXPROCS; 1 forces
	// the exact sequential path. Lane partitioning keeps results
	// byte-identical at any setting (see engine/parallel.go).
	Parallel int
	// EVCacheBytes budgets a device-DRAM embedding-vector cache (0, the
	// default, disables it): hot vectors are served from controller DRAM
	// in ~EVCacheHitCycles instead of a C_EV flash read. Predictions are
	// byte-identical with the cache on or off (engine/locality.go).
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
	if o.Part.Name == "" {
		o.Part = params.XCVU9P
	}
	if o.ExtentBytes == 0 {
		o.ExtentBytes = 1 << 20
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
func (b Breakdown) Stages() []sim.Stage {
	if !b.Overlap {
		return []sim.Stage{{Name: "batch", Time: b.Send + b.Emb + b.Bot + b.Top + b.Read}}
	}
	if b.Read == 0 {
		return []sim.Stage{{Name: "send", Time: b.Send}, {Name: "emb", Time: b.Emb}}
	}
	return []sim.Stage{
		{Name: "send", Time: b.Send},
		{Name: "emb", Time: maxDur(b.Emb, b.Bot)},
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

	// spanSink, when non-nil, receives one obs.DeviceSpan per InferBatch /
	// InferBatchTiming call (including fault-failed batches). The nil check
	// is the entire cost of the disabled state.
	spanSink obs.SpanSink
}

// New builds an RM-SSD hosting the given model: tables are created and laid
// out on the device (RM_create_table) and their extent metadata registered
// with the EV Translator (RM_open_table).
func New(cfg model.Config, opts Options) (*RMSSD, error) {
	if opts.ArrayDevices > 1 {
		return nil, fmt.Errorf("core: ArrayDevices=%d: a multi-device array must be built with array.New", opts.ArrayDevices)
	}
	opts = opts.withDefaults()
	m, err := model.Build(cfg)
	if err != nil {
		return nil, err
	}
	var dev *ssd.Device
	var err2 error
	if opts.Dynamic {
		dev, err2 = ssd.NewDynamic(opts.Geometry)
	} else {
		dev, err2 = ssd.New(opts.Geometry)
	}
	if err2 != nil {
		return nil, err2
	}
	fs := hostio.NewFS(dev, opts.ExtentBytes)
	store, err := embedding.NewStore(m, fs)
	if err != nil {
		return nil, err
	}
	mlp, err := engine.NewMLPEngineGeo(m, opts.Design, opts.Part,
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
	r.lookup.SetParallel(opts.Parallel)
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

// MustNew is New, panicking on error.
func MustNew(cfg model.Config, opts Options) *RMSSD {
	r, err := New(cfg, opts)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	return r
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
	return r.SendPayload(at, n, r.inputBytes()*int64(n))
}

// SendPayload is SendInputs with an explicit DMA payload size: the array
// scatter path (internal/array) ships each member device only the indices
// it owns (plus the dense features on the top-MLP member), so the register
// dance is identical but the bulk transfer is smaller. SendInputs is the
// single-device case where the payload is the full InputBytes(n).
func (r *RMSSD) SendPayload(at sim.Time, n int, payload int64) sim.Time {
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

// InferBatch runs one device batch end to end: send inputs, pool embeddings
// on the lookup engine (simulated flash timing), run the remapped MLP, read
// outputs. Outputs are real float32 CTR predictions; the returned Breakdown
// carries the simulated stage times.
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
	n := len(sparses)
	var probe spanProbe
	if r.spanSink != nil {
		probe = r.probeSpan()
	}
	bd := Breakdown{Overlap: r.mlp.Design() != engine.DesignNaive}
	sendDone := r.SendInputs(at, n)
	bd.Send = sendDone - at

	// Extended embedding stage: flash pooling for the whole batch plus
	// the Le kernel, overlapped with the extended bottom MLP.
	outs := make([]float32, n)
	embStart := sendDone
	// PoolBatch shares one dedup table across the whole device batch when
	// the locality path is enabled; otherwise it is exactly the
	// per-inference Pool loop.
	pooled, lookDone, lookErr := r.lookup.PoolBatch(embStart, sparses)
	embDone := sim.Max(embStart, lookDone)
	if k := params.Duration(r.mlp.EmbKernelCycles(n)); embStart+k > embDone {
		embDone = embStart + k
	}
	bd.Emb = embDone - embStart
	if lookErr != nil {
		if r.spanSink != nil {
			r.emitSpan(probe, failedSpan(at, sendDone, embDone, n))
		}
		return nil, embDone, bd, fmt.Errorf("core: infer batch: %w", lookErr)
	}

	bd.Bot = params.Duration(r.mlp.BottomStageCycles(n))
	joined := sim.Max(embDone, embStart+bd.Bot)
	if !bd.Overlap {
		// No intra-layer decomposition: the whole MLP runs after the
		// embedding results arrive.
		joined = embDone + bd.Bot
	}

	bd.Top = params.Duration(r.mlp.TopStageCycles(n))
	topDone := joined + bd.Top

	for i := 0; i < n; i++ {
		outs[i] = r.mlp.Forward(denses[i], pooled[i])
	}

	readDone := r.ReadOutputs(topDone, n)
	bd.Read = readDone - topDone
	r.inferences += int64(n)
	if r.spanSink != nil {
		r.emitSpan(probe, r.servedSpan(at, sendDone, embDone, joined, topDone, readDone, bd.Bot, n))
	}
	return outs, readDone, bd, nil
}

// InferBatchTiming is InferBatch without materialising values.
func (r *RMSSD) InferBatchTiming(at sim.Time, sparses [][][]int64) (sim.Time, Breakdown, error) {
	if err := r.lookup.ValidateLookups(sparses); err != nil {
		return at, Breakdown{}, err
	}
	n := len(sparses)
	var probe spanProbe
	if r.spanSink != nil {
		probe = r.probeSpan()
	}
	bd := Breakdown{Overlap: r.mlp.Design() != engine.DesignNaive}
	sendDone := r.SendInputs(at, n)
	bd.Send = sendDone - at
	embStart := sendDone
	lookDone, lookErr := r.lookup.PoolBatchTiming(embStart, sparses)
	embDone := sim.Max(embStart, lookDone)
	if k := params.Duration(r.mlp.EmbKernelCycles(n)); embStart+k > embDone {
		embDone = embStart + k
	}
	bd.Emb = embDone - embStart
	if lookErr != nil {
		if r.spanSink != nil {
			r.emitSpan(probe, failedSpan(at, sendDone, embDone, n))
		}
		return embDone, bd, fmt.Errorf("core: infer batch: %w", lookErr)
	}
	bd.Bot = params.Duration(r.mlp.BottomStageCycles(n))
	joined := sim.Max(embDone, embStart+bd.Bot)
	if !bd.Overlap {
		joined = embDone + bd.Bot
	}
	bd.Top = params.Duration(r.mlp.TopStageCycles(n))
	topDone := joined + bd.Top
	readDone := r.ReadOutputs(topDone, n)
	bd.Read = readDone - topDone
	r.inferences += int64(n)
	if r.spanSink != nil {
		r.emitSpan(probe, r.servedSpan(at, sendDone, embDone, joined, topDone, readDone, bd.Bot, n))
	}
	return readDone, bd, nil
}

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
	if r.mlp.Design() == engine.DesignNaive {
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
	if r.mlp.Design() == engine.DesignNaive {
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
	page, readDone := r.dev.ReadPage(at, lpn)
	buf := append([]byte(nil), page...)
	for i, x := range v {
		binary.LittleEndian.PutUint32(buf[col+4*i:], math.Float32bits(x))
	}
	done := r.dev.WritePage(readDone, lpn, buf)
	// A cached copy would now serve stale (and aliased-to-dead-page) bytes.
	r.lookup.Invalidate(table, row)
	return done, nil
}

// SetSpanSink installs (or, with nil, removes) the per-batch span sink.
// The sink is called synchronously at the end of every inference batch
// with stage spans and counter deltas derived purely from simulated
// state — attaching it changes nothing about timing or predictions.
func (r *RMSSD) SetSpanSink(s obs.SpanSink) { r.spanSink = s }

// spanProbe snapshots the deterministic counters a batch can move, taken
// before the embedding stage so emitSpan can attribute the deltas.
type spanProbe struct {
	look  engine.LookupStats
	cache evcache.Stats
	fl    flash.Stats
	ch    []flash.ChannelCounters
}

func (r *RMSSD) probeSpan() spanProbe {
	p := spanProbe{
		look: r.lookup.Stats(),
		fl:   r.dev.Array().Stats(),
		ch:   r.dev.Array().ChannelIO(),
	}
	if c := r.lookup.EVCache(); c != nil {
		p.cache = c.Stats()
	}
	return p
}

// emitSpan fills sp's counter fields with the deltas since probe and hands
// the span to the sink.
func (r *RMSSD) emitSpan(probe spanProbe, sp obs.DeviceSpan) {
	look := r.lookup.Stats()
	sp.Lookups = look.Lookups - probe.look.Lookups
	sp.DedupHits = look.DedupHits - probe.look.DedupHits
	sp.BytesPooled = look.BytesPooled - probe.look.BytesPooled
	if c := r.lookup.EVCache(); c != nil {
		cs := c.Stats()
		sp.CacheHits = cs.Hits - probe.cache.Hits
		sp.CacheMisses = cs.Misses - probe.cache.Misses
		sp.CacheEvictions = cs.Evictions - probe.cache.Evictions
	}
	fl := r.dev.Array().Stats()
	sp.VectorReads = fl.VectorReads - probe.fl.VectorReads
	sp.PageReads = fl.PageReads - probe.fl.PageReads
	sp.ECCRetries = fl.ECCRetries - probe.fl.ECCRetries
	sp.ReadFaults = fl.ReadFaults - probe.fl.ReadFaults
	sp.Uncorrectable = fl.Uncorrectable - probe.fl.Uncorrectable
	sp.BytesTransferred = fl.BytesTransferred - probe.fl.BytesTransferred
	for i, c := range r.dev.Array().ChannelIO() {
		if i < len(probe.ch) {
			c = c.Sub(probe.ch[i])
		}
		if c != (flash.ChannelCounters{}) {
			sp.Channels = append(sp.Channels, obs.ChannelIO{
				Channel:       i,
				Reads:         c.Reads,
				Retries:       c.Retries,
				Uncorrectable: c.Uncorrectable,
			})
		}
	}
	r.spanSink(sp)
}

// failedSpan builds the span for a batch that failed after the embedding
// stage: the remaining stages are empty at the failure point.
func failedSpan(at, sendDone, embDone sim.Time, n int) obs.DeviceSpan {
	return obs.DeviceSpan{
		Start:  at,
		Done:   embDone,
		N:      n,
		Failed: true,
		Send:   obs.StageSpan{From: at, To: sendDone},
		Emb:    obs.StageSpan{From: sendDone, To: embDone},
		Bot:    obs.StageSpan{From: embDone, To: embDone},
		Top:    obs.StageSpan{From: embDone, To: embDone},
		Read:   obs.StageSpan{From: embDone, To: embDone},
	}
}

// servedSpan builds the span for a successfully served batch. The bottom
// MLP overlaps the embedding gather on the searched design and follows it
// on the naive one; either way the top MLP starts at the join.
func (r *RMSSD) servedSpan(at, sendDone, embDone, joined, topDone, readDone sim.Time, bot time.Duration, n int) obs.DeviceSpan {
	botFrom := sendDone
	if r.mlp.Design() == engine.DesignNaive {
		botFrom = embDone
	}
	return obs.DeviceSpan{
		Start: at,
		Done:  readDone,
		N:     n,
		Send:  obs.StageSpan{From: at, To: sendDone},
		Emb:   obs.StageSpan{From: sendDone, To: embDone},
		Bot:   obs.StageSpan{From: botFrom, To: botFrom + bot},
		Top:   obs.StageSpan{From: joined, To: topDone},
		Read:  obs.StageSpan{From: topDone, To: readDone},
	}
}

// SpanProbe is an opaque counter snapshot for orchestrators that drive a
// device's stages directly instead of going through InferBatch
// (internal/array): ProbeSpan before the first stage, EmitSpan after the
// last, and the span's counter deltas cover exactly that window.
type SpanProbe struct{ p spanProbe }

// SpanSinkEnabled reports whether a span sink is installed — orchestrators
// skip probing (and span assembly) entirely when it is not, mirroring
// InferBatch's nil check.
func (r *RMSSD) SpanSinkEnabled() bool { return r.spanSink != nil }

// ProbeSpan snapshots the device's deterministic counters.
func (r *RMSSD) ProbeSpan() SpanProbe { return SpanProbe{r.probeSpan()} }

// EmitSpan fills sp's counter fields with the deltas since probe and hands
// the span to the installed sink (a no-op without one).
func (r *RMSSD) EmitSpan(probe SpanProbe, sp obs.DeviceSpan) {
	if r.spanSink == nil {
		return
	}
	r.emitSpan(probe.p, sp)
}

// AddServed adds externally orchestrated inferences to the served count.
// The array credits its top-MLP member, whose pipeline produced the batch's
// outputs, so per-member /stats accounting stays meaningful.
func (r *RMSSD) AddServed(n int) { r.inferences += int64(n) }

// Inferences returns the number of inferences served.
func (r *RMSSD) Inferences() int64 { return r.inferences }

// ResetTime idles the device's timing resources (between experiments).
func (r *RMSSD) ResetTime() {
	r.dev.ResetTime()
	if c := r.lookup.EVCache(); c != nil {
		c.ResetTime()
	}
}
