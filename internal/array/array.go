package array

import (
	"fmt"
	"time"

	"rmssd/internal/core"
	"rmssd/internal/engine"
	"rmssd/internal/model"
	"rmssd/internal/obs"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
)

// Array is a multi-device RM-SSD: one logical model whose embedding tables
// are partitioned across member devices. Member 0 is the designated
// top-MLP device — it also receives the dense features, runs the bottom
// tower, feature interaction and the top tower, and crosses the host
// interface for the results; the other members only pool their owned rows
// and ship per-(inference, table) partial sums over the modeled
// inter-device link at gather time.
type Array struct {
	cfg    model.Config
	layout Layout
	devs   []*core.RMSSD
	top    int

	inferences int64
	batches    int64
	scattered  []int64 // lookups routed, per member
	partials   int64   // partial vectors shipped member -> top
	transfers  int64   // member -> top gather hops
	xferBytes  int64   // bytes over the inter-device link
}

// Stats is a snapshot of the array's scatter/gather counters.
type Stats struct {
	// Devices and Partition describe the resolved layout.
	Devices   int
	Partition Strategy
	// Batches counts array batches attempted (served or faulted), and
	// Inferences the inferences served.
	Batches    int64
	Inferences int64
	// Scattered[d] counts the sparse lookups routed to member d.
	Scattered []int64
	// Partials, Transfers and TransferBytes account the member->top gather
	// traffic (zero on a one-device array).
	Partials      int64
	Transfers     int64
	TransferBytes int64
}

// New builds an array hosting cfg: model.Build materialises the weights
// once, then NewFromModel assembles the members around them.
func New(cfg model.Config, opts core.Options) (*Array, error) {
	m, err := model.Build(cfg)
	if err != nil {
		return nil, err
	}
	return NewFromModel(m, opts)
}

// SeedStride spaces the fault seeds of an array's members: member d runs
// base + d*SeedStride. Serving strides its shards' seeds by the same amount
// so that every member of every shard draws its own fault stream.
const SeedStride = 0x9e37

// NewFromModel builds an array hosting the already-built model m across
// opts.ArrayDevices members partitioned by opts.Partition. Every member
// hosts a model.Model whose Cfg is its Layout.MemberConfig over m's Bottom
// and Top layers: the weights are shared read-only, since they depend only
// on the seed and layer dimensions, never on the row remap. Each member
// gets its own flash array, lookup engine, EV cache and MLP engine (kernel
// schedule and layer headers over m's weights); the remaining Options apply
// to every member.
// An enabled fault plan is reseeded per member (SeedStride apart) so fault
// streams stay independent, with member 0 keeping the base seed.
// ArrayDevices <= 1 builds the one-member degenerate array, bit-identical
// to core.NewFromModel.
func NewFromModel(m *model.Model, opts core.Options) (*Array, error) {
	if m == nil {
		return nil, fmt.Errorf("array: nil model")
	}
	cfg := m.Cfg
	n := opts.ArrayDevices
	if n <= 0 {
		n = 1
	}
	p := Partition{Strategy: Strategy(opts.Partition), Devices: n}
	layout, err := p.Resolve(cfg.RowsPerTable)
	if err != nil {
		return nil, err
	}
	if cfg.RowBase != 0 || cfg.RowStride > 1 {
		return nil, fmt.Errorf("array: config %s already carries a row remap (base %d stride %d)",
			cfg.Name, cfg.RowBase, cfg.RowStride)
	}
	a := &Array{cfg: cfg, layout: layout, devs: make([]*core.RMSSD, n), scattered: make([]int64, n)}
	mo := opts
	mo.ArrayDevices = 0
	mo.Partition = ""
	for d := range a.devs {
		o := mo
		if o.FaultPlan.Enabled() {
			o.FaultPlan.Seed += uint64(d) * SeedStride
		}
		member := &model.Model{Cfg: layout.MemberConfig(cfg, d), Bottom: m.Bottom, Top: m.Top}
		dev, err := core.NewFromModel(member, o)
		if err != nil {
			return nil, fmt.Errorf("array: device %d: %w", d, err)
		}
		a.devs[d] = dev
	}
	return a, nil
}

// MustNew is New, panicking on error.
func MustNew(cfg model.Config, opts core.Options) *Array {
	a, err := New(cfg, opts)
	if err != nil {
		panic(fmt.Sprintf("array: %v", err))
	}
	return a
}

// Config returns the logical (unpartitioned) model config.
func (a *Array) Config() model.Config { return a.cfg }

// Layout returns the resolved partition.
func (a *Array) Layout() Layout { return a.layout }

// Top returns the index of the designated top-MLP member.
func (a *Array) Top() int { return a.top }

// Devices returns the member devices in index order (do not reorder).
func (a *Array) Devices() []*core.RMSSD {
	return append([]*core.RMSSD(nil), a.devs...)
}

// NBatch returns the device batch size: the kernel search depends only on
// the model architecture, not the row count, so every member agrees.
func (a *Array) NBatch() int { return a.devs[a.top].NBatch() }

// Inferences returns the number of inferences served by the array.
func (a *Array) Inferences() int64 { return a.inferences }

// Stats returns a snapshot of the scatter/gather counters.
func (a *Array) Stats() Stats {
	return Stats{
		Devices:       len(a.devs),
		Partition:     a.layout.Strategy(),
		Batches:       a.batches,
		Inferences:    a.inferences,
		Scattered:     append([]int64(nil), a.scattered...),
		Partials:      a.partials,
		Transfers:     a.transfers,
		TransferBytes: a.xferBytes,
	}
}

// Counters sums the members' device counters, channel by channel.
func (a *Array) Counters() obs.Counters {
	var c obs.Counters
	for _, dev := range a.devs {
		c.Add(dev.Counters())
	}
	return c
}

// TransferCost prices one member->top gather hop carrying the given bytes
// of partial sums: a fixed peer-DMA setup plus bytes over the inter-device
// link (params.ArrayTransferSetup / ArrayTransferBandwidth, the same shape
// as the host DMA cost).
func TransferCost(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return params.ArrayTransferSetup + time.Duration(float64(bytes)/params.ArrayTransferBandwidth*1e9)
}

// gatherCost is the analytic per-batch gather allowance used by the
// pipeline model: the worst case of one member shipping a partial for
// every (inference, table) pair. Zero for a one-member array.
func (a *Array) gatherCost(n int) time.Duration {
	if len(a.devs) == 1 {
		return 0
	}
	return TransferCost(int64(n) * int64(a.cfg.Tables) * int64(a.cfg.EVSize()))
}

// SteadyStateQPS returns the analytic steady-state throughput for a device
// batch of n: the top member's pipeline with the embedding stage extended
// by the gather allowance.
func (a *Array) SteadyStateQPS(n int) float64 {
	st := a.devs[a.top].StageTimes(n)
	st[1].Time += a.gatherCost(n)
	if a.devs[a.top].MLP().Design() == engine.DesignNaive {
		return sim.Throughput(sim.Serial(st...), n)
	}
	res := sim.Pipeline(st...)
	return sim.Throughput(res.Interval, n)
}

// Latency returns the analytic end-to-end latency of one device batch of n.
func (a *Array) Latency(n int) time.Duration {
	return a.devs[a.top].Latency(n) + a.gatherCost(n)
}

// ValidateInputs checks one batch against the logical model shape and row
// space without touching any member state. A one-member array delegates to
// its device so even extent-coverage edge behaviour matches core exactly;
// with N > 1 every row must lie in [0, RowsPerTable) — the partition is
// only defined there.
func (a *Array) ValidateInputs(denses []tensor.Vector, sparses [][][]int64) error {
	if len(a.devs) == 1 {
		return a.devs[0].ValidateInputs(denses, sparses)
	}
	n := len(sparses)
	if n == 0 || len(denses) != n {
		return fmt.Errorf("array: batch of %d dense, %d sparse inputs: %w", len(denses), n, core.ErrShapeMismatch)
	}
	cfg := a.cfg
	for i, d := range denses {
		if len(d) != cfg.DenseDim {
			return fmt.Errorf("array: inference %d: dense dim %d, want %d: %w", i, len(d), cfg.DenseDim, core.ErrShapeMismatch)
		}
	}
	for i, sparse := range sparses {
		if len(sparse) != cfg.Tables {
			return fmt.Errorf("array: inference %d: %d sparse inputs, want %d: %w",
				i, len(sparse), cfg.Tables, core.ErrShapeMismatch)
		}
		for t, rows := range sparse {
			for _, row := range rows {
				if row < 0 || row >= cfg.RowsPerTable {
					return fmt.Errorf("array: inference %d: row %d of table %d outside the partitioned row space: %w",
						i, row, t, core.ErrRowOutOfRange)
				}
			}
		}
	}
	return nil
}

// memberRun carries one member device's per-batch state.
type memberRun struct {
	active  bool
	batch   core.Batch // the member's run through core's stage schedule
	arrival sim.Time   // embedding done plus the gather hop (no hop on the top member)
	pooled  [][]tensor.Vector
	err     error
}

// InferBatch runs one array batch end to end: scatter each inference's
// sparse lookups to the owning members (indices to every active member,
// dense features to the top member), pool embeddings per member on
// independent virtual clocks, gather partial sums on the top member over
// the modeled inter-device link, then run the MLP towers and read the
// results from the top member. Every member runs core's stage schedule
// (core.Batch); the top member finishes it once the gather has landed.
// Outputs are real float32 CTR predictions; the Breakdown's Emb stage
// covers flash pooling plus the gather.
//
// Partial sums merge in fixed member-index order and members with no owned
// lookups in a batch are skipped entirely, so functional results and
// simulated times are pure functions of (config, inputs) — and the
// one-member array reproduces core.RMSSD.InferBatch bit for bit, stage for
// stage.
func (a *Array) InferBatch(at sim.Time, denses []tensor.Vector, sparses [][][]int64) ([]float32, sim.Time, core.Breakdown, error) {
	if err := a.ValidateInputs(denses, sparses); err != nil {
		return nil, at, core.Breakdown{}, err
	}
	n := len(sparses)
	nd := len(a.devs)
	tables := a.cfg.Tables
	a.batches++

	// Scatter plan: pure bookkeeping, no simulated time. sub[d][i][t]
	// lists member d's local rows for (inference i, table t); contrib
	// marks the (i, t) pairs d will produce a partial sum for.
	sub := make([][][][]int64, nd)
	contrib := make([][]bool, nd)
	counts := make([]int64, nd)
	partials := make([]int64, nd)
	for d := 0; d < nd; d++ {
		contrib[d] = make([]bool, n*tables)
	}
	for i, sparse := range sparses {
		for t, rows := range sparse {
			for _, row := range rows {
				d := a.layout.Owner(t, row)
				if sub[d] == nil {
					sub[d] = emptyBatch(n, tables)
				}
				if !contrib[d][i*tables+t] {
					contrib[d][i*tables+t] = true
					partials[d]++
				}
				sub[d][i][t] = append(sub[d][i][t], a.layout.Local(t, row))
				counts[d]++
			}
		}
	}
	if sub[a.top] == nil {
		// The top member always runs: it takes the dense features and
		// hosts the MLP pipeline even when it owns no lookups.
		sub[a.top] = emptyBatch(n, tables)
	}

	// Per-member stages, each on the member's own virtual clock.
	runs := make([]memberRun, nd)
	for d := 0; d < nd; d++ {
		if sub[d] == nil {
			continue
		}
		run := &runs[d]
		run.active = true
		payload := counts[d] * 8
		if d == a.top {
			payload += int64(n) * int64(a.cfg.DenseDim) * 4
		}
		run.batch = a.devs[d].BeginBatch(at, n, payload)
		run.pooled, run.err = run.batch.Pool(sub[d], true)
		run.arrival = run.batch.EmbDone()
		if d != a.top {
			run.arrival += TransferCost(partials[d] * int64(a.cfg.EVSize()))
		}
		a.scattered[d] += counts[d]
	}
	topRun := &runs[a.top]

	// A fault on any member fails the batch at the point every active
	// embedding stage has resolved; no gather traffic moves. Every active
	// member ends its span at its own embedding stage, the top member last
	// (the obs.Tracer contract: the final span of a batch is the batch's
	// device span).
	if err := firstMemberErr(runs); err != nil {
		failTime := topRun.batch.EmbDone()
		for d := range runs {
			if runs[d].active && d != a.top {
				failTime = sim.Max(failTime, runs[d].batch.Fail())
			}
		}
		topRun.batch.Fail()
		return nil, failTime, a.breakdown(runs), err
	}

	// Gather: every non-top member's partials arrive over the link; the
	// embedding stage of the array ends when the last one lands. Each
	// lookup-only member's span ends at its partials' arrival.
	gatherDone := topRun.batch.EmbDone()
	for d := range runs {
		if runs[d].active && d != a.top {
			gatherDone = sim.Max(gatherDone, runs[d].arrival)
			runs[d].batch.Ship(runs[d].arrival)
			a.transfers++
			a.partials += partials[d]
			a.xferBytes += partials[d] * int64(a.cfg.EVSize())
		}
	}

	merged := a.mergePooled(runs, contrib, n)
	top := a.devs[a.top]
	outs := make([]float32, n)
	for i := 0; i < n; i++ {
		outs[i] = top.MLP().Forward(denses[i], merged[i])
	}
	done := topRun.batch.Finish(gatherDone)
	a.inferences += int64(n)
	return outs, done, a.breakdown(runs), nil
}

// breakdown assembles the array batch's Breakdown from its members'
// batches (core.GatherBreakdown): the top member's stages, its emb stage
// extended to the gather and laned over every member's dies.
func (a *Array) breakdown(runs []memberRun) core.Breakdown {
	members := make([]*core.Batch, len(runs))
	for d := range runs {
		if runs[d].active {
			members[d] = &runs[d].batch
		}
	}
	return core.GatherBreakdown(&runs[a.top].batch, members)
}

// emptyBatch allocates an n-inference batch of empty per-table row lists.
func emptyBatch(n, tables int) [][][]int64 {
	b := make([][][]int64, n)
	for i := range b {
		b[i] = make([][]int64, tables)
	}
	return b
}

func firstMemberErr(runs []memberRun) error {
	for d := range runs {
		if runs[d].active && runs[d].err != nil {
			return fmt.Errorf("array: device %d: %w", d, runs[d].err)
		}
	}
	return nil
}

// mergePooled sums the members' partial SLS results in member-index order.
// The first contributor's vector is aliased, not copied — member pools are
// freshly allocated per batch — so a single contributor (every (i, t) pair
// at N=1) passes through bit-identically, with no 0+x rounding artefacts.
// Pairs no member contributed to pool to the zero vector, as on a single
// device.
func (a *Array) mergePooled(runs []memberRun, contrib [][]bool, n int) [][]tensor.Vector {
	tables := a.cfg.Tables
	merged := make([][]tensor.Vector, n)
	for i := range merged {
		merged[i] = make([]tensor.Vector, tables)
	}
	for d := range runs {
		if !runs[d].active {
			continue
		}
		for i := 0; i < n; i++ {
			for t := 0; t < tables; t++ {
				if !contrib[d][i*tables+t] {
					continue
				}
				if merged[i][t] == nil {
					merged[i][t] = runs[d].pooled[i][t]
				} else {
					tensor.AccumulateInto(merged[i][t], runs[d].pooled[i][t])
				}
			}
		}
	}
	for i := range merged {
		for t, v := range merged[i] {
			if v == nil {
				merged[i][t] = make(tensor.Vector, a.cfg.EVDim)
			}
		}
	}
	return merged
}
