// Package model defines the recommendation models of the paper's Table III
// (DLRM-RMC1/2/3) plus the two extreme MLP-dominated models of Fig. 15
// (NCF, Wide&Deep), and provides the host-side reference implementation of
// inference: bottom MLP over dense features, SparseLengthsSum pooling over
// embedding tables, feature-interaction concatenation, top MLP, sigmoid CTR
// output (Fig. 1).
//
// Embedding vectors are generated deterministically from (seed, table, row,
// element), so tables of paper scale (30 GB) never have to be materialised;
// the byte encoding used on the simulated SSD matches EVBytes exactly,
// which the embedding package's tests verify.
package model

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"rmssd/internal/params"
	"rmssd/internal/tensor"
)

// Config describes a recommendation model's architecture.
type Config struct {
	// Name identifies the model (e.g. "RMC1").
	Name string
	// DenseDim is the width of the dense-feature input. Table III's
	// bottom-MLP strings are input-inclusive ("128-64-32" is a 128-wide
	// input into 64- and 32-wide FC layers), which is what makes the
	// reported MLP sizes and Table V's layer lists line up.
	DenseDim int
	// BottomMLP lists the output width of each bottom-MLP layer; the
	// last entry must equal EVDim so the bottom output can join feature
	// interaction. Empty means dense features pass through directly
	// (Wide&Deep-style).
	BottomMLP []int
	// TopMLP lists the output width of each top-MLP layer; the last
	// entry must be 1 (the CTR output).
	TopMLP []int
	// EVDim is the embedding-vector dimension (Table III "DIM").
	EVDim int
	// Tables is the number of embedding tables (M).
	Tables int
	// Lookups is the number of pooled lookups per table (N).
	Lookups int
	// RowsPerTable is the number of vectors per table. The paper sizes
	// every model's tables to 30 GB total; RowsForBudget computes that.
	RowsPerTable int64
	// Seed drives weight and embedding generation.
	Seed uint64
	// RowBase and RowStride remap this config's local row space onto a
	// logical parent model's global rows: local row r of every table holds
	// the parent's row RowBase + r*RowStride (RowStride 0 means 1). The
	// zero values are the identity map. They affect only embedding-content
	// generation — internal/array derives one remapped config per member
	// device so each member stores globally-correct vectors for exactly
	// the row slice its partition assigns it.
	RowBase   int64
	RowStride int64
}

// GlobalRow maps a local row index through the RowBase/RowStride remap to
// the logical parent model's row. For the zero-value remap it is the
// identity, so standalone models are unaffected. The pointer receiver keeps
// the per-vector synthesis (EVBytesInto) from copying the whole Config.
func (c *Config) GlobalRow(local int64) int64 {
	stride := c.RowStride
	if stride == 0 {
		stride = 1
	}
	return c.RowBase + local*stride
}

// rowRemapOverflows reports whether the remapped top row
// RowBase + (RowsPerTable-1)*RowStride exceeds int64, done by division so
// huge strides cannot wrap around the check itself. Callers guarantee
// RowBase, RowStride and RowsPerTable are non-negative.
func (c Config) rowRemapOverflows() bool {
	stride := c.RowStride
	if stride == 0 {
		stride = 1
	}
	top := c.RowsPerTable - 1
	if top <= 0 {
		return false
	}
	return top > (math.MaxInt64-c.RowBase)/stride
}

// EVSize returns the byte size of one embedding vector (FP32).
func (c Config) EVSize() int { return 4 * c.EVDim }

// TopInputDim returns the width of the top MLP's input: the concatenation
// of the bottom-MLP output (or raw dense features) with one pooled vector
// per table.
func (c Config) TopInputDim() int {
	return c.BottomOutDim() + c.EVDim*c.Tables
}

// BottomOutDim returns the width of the bottom tower's output.
func (c Config) BottomOutDim() int {
	if len(c.BottomMLP) == 0 {
		return c.DenseDim
	}
	return c.BottomMLP[len(c.BottomMLP)-1]
}

// TableBytes returns the total size of all embedding tables.
func (c Config) TableBytes() int64 {
	return int64(c.Tables) * c.RowsPerTable * int64(c.EVSize())
}

// RowsForBudget returns the per-table row count that makes the embedding
// tables total budgetBytes (Section VI-A: "The total size of embedding
// tables for each model is set to 30 GB").
func (c Config) RowsForBudget(budgetBytes int64) int64 {
	return budgetBytes / (int64(c.Tables) * int64(c.EVSize()))
}

// MLPWeightBytes returns the total FP32 weight footprint of both MLPs
// (Table III "MLP size"): weights plus biases.
func (c Config) MLPWeightBytes() int64 {
	var parms int64
	in := c.DenseDim
	for _, out := range c.BottomMLP {
		parms += int64(in)*int64(out) + int64(out)
		in = out
	}
	in = c.TopInputDim()
	for _, out := range c.TopMLP {
		parms += int64(in)*int64(out) + int64(out)
		in = out
	}
	return 4 * parms
}

// Architecture bounds enforced by Validate. They are far beyond anything in
// the paper (Table III tops out at 32 tables and EVDim 64) but small enough
// that every derived size — EVSize, TopInputDim, MLPWeightBytes,
// TableBytes — fits in int64 without overflow, which is what lets the rest
// of the codebase do size arithmetic without per-call checks.
const (
	// MaxDim bounds DenseDim and every MLP layer width.
	MaxDim = 1 << 20
	// MaxLayers bounds the depth of either tower.
	MaxLayers = 64
	// MaxTables bounds the embedding-table count, MaxLookups the pooled
	// lookups per table, MaxEVDim the embedding-vector dimension.
	MaxTables  = 1 << 16
	MaxLookups = 1 << 16
	MaxEVDim   = 1 << 16
)

// maxRowsPerTable returns the largest row count whose total table footprint
// (Tables * rows * EVSize) still fits in int64. Callers guarantee
// Tables and EVDim are positive and within their caps, so the divisor is a
// small positive number and the quotient is huge but finite.
func (c Config) maxRowsPerTable() int64 {
	return math.MaxInt64 / (int64(c.Tables) * int64(c.EVSize()))
}

// Validate reports configuration errors. A config that validates is
// servable: every derived size is positive and overflow-free.
func (c Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("model: empty name")
	case c.DenseDim < 0:
		return fmt.Errorf("model %s: dense dim %d", c.Name, c.DenseDim)
	case c.DenseDim > MaxDim:
		return fmt.Errorf("model %s: dense dim %d exceeds %d", c.Name, c.DenseDim, MaxDim)
	case c.EVDim <= 0 || c.EVDim > MaxEVDim:
		return fmt.Errorf("model %s: EV dim %d (want 1..%d)", c.Name, c.EVDim, MaxEVDim)
	case c.Tables <= 0 || c.Tables > MaxTables:
		return fmt.Errorf("model %s: %d tables (want 1..%d)", c.Name, c.Tables, MaxTables)
	case c.Lookups <= 0 || c.Lookups > MaxLookups:
		return fmt.Errorf("model %s: %d lookups (want 1..%d)", c.Name, c.Lookups, MaxLookups)
	case c.RowsPerTable <= 0:
		return fmt.Errorf("model %s: %d rows per table", c.Name, c.RowsPerTable)
	case c.RowsPerTable > c.maxRowsPerTable():
		return fmt.Errorf("model %s: %d rows per table overflows the %d-table x %d-byte layout",
			c.Name, c.RowsPerTable, c.Tables, c.EVSize())
	case c.RowBase < 0:
		return fmt.Errorf("model %s: row base %d", c.Name, c.RowBase)
	case c.RowStride < 0:
		return fmt.Errorf("model %s: row stride %d", c.Name, c.RowStride)
	case c.rowRemapOverflows():
		return fmt.Errorf("model %s: row remap base %d stride %d overflows %d rows",
			c.Name, c.RowBase, c.RowStride, c.RowsPerTable)
	case len(c.BottomMLP) > MaxLayers:
		return fmt.Errorf("model %s: %d bottom layers exceeds %d", c.Name, len(c.BottomMLP), MaxLayers)
	case len(c.TopMLP) > MaxLayers:
		return fmt.Errorf("model %s: %d top layers exceeds %d", c.Name, len(c.TopMLP), MaxLayers)
	case len(c.TopMLP) == 0 || c.TopMLP[len(c.TopMLP)-1] != 1:
		return fmt.Errorf("model %s: top MLP must end in a single output", c.Name)
	case len(c.BottomMLP) > 0 && c.DenseDim == 0:
		return fmt.Errorf("model %s: bottom MLP without dense input", c.Name)
	}
	for i, w := range c.BottomMLP {
		if w <= 0 || w > MaxDim {
			return fmt.Errorf("model %s: bottom layer %d width %d", c.Name, i, w)
		}
	}
	for i, w := range c.TopMLP {
		if w <= 0 || w > MaxDim {
			return fmt.Errorf("model %s: top layer %d width %d", c.Name, i, w)
		}
	}
	return nil
}

// TableIIIBudget is the paper's embedding-table budget per model.
const TableIIIBudget = 30 << 30 // 30 GB

// RMC1 returns Facebook DLRM-RMC1 (Table III): an embedding-dominated
// model with 8 tables and 80 pooled lookups each.
func RMC1() Config {
	c := Config{
		Name:      "RMC1",
		DenseDim:  128,
		BottomMLP: []int{64, 32},
		TopMLP:    []int{256, 64, 1},
		EVDim:     32,
		Tables:    8,
		Lookups:   80,
		Seed:      0x0001,
	}
	c.RowsPerTable = c.RowsForBudget(TableIIIBudget)
	return c
}

// RMC2 returns DLRM-RMC2 (Table III): the most embedding-heavy model, with
// 32 tables and 120 lookups each at dimension 64.
func RMC2() Config {
	c := Config{
		Name:      "RMC2",
		DenseDim:  256,
		BottomMLP: []int{128, 64},
		TopMLP:    []int{128, 64, 1},
		EVDim:     64,
		Tables:    32,
		Lookups:   120,
		Seed:      0x0002,
	}
	c.RowsPerTable = c.RowsForBudget(TableIIIBudget)
	return c
}

// RMC3 returns DLRM-RMC3 (Table III): the MLP-dominated model with a
// 12.23 MB MLP and only 20 lookups over 10 tables.
func RMC3() Config {
	c := Config{
		Name:      "RMC3",
		DenseDim:  2560,
		BottomMLP: []int{1024, 256, 32},
		TopMLP:    []int{512, 256, 1},
		EVDim:     32,
		Tables:    10,
		Lookups:   20,
		Seed:      0x0003,
	}
	c.RowsPerTable = c.RowsForBudget(TableIIIBudget)
	return c
}

// NCF returns a Neural Collaborative Filtering configuration (Fig. 15):
// one lookup per table, a deep MLP tower, no dense features.
func NCF() Config {
	c := Config{
		Name:      "NCF",
		DenseDim:  0,
		BottomMLP: nil,
		TopMLP:    []int{256, 256, 128, 1},
		EVDim:     64,
		Tables:    4,
		Lookups:   1,
		Seed:      0x0004,
	}
	c.RowsPerTable = c.RowsForBudget(TableIIIBudget)
	return c
}

// WnD returns a Wide & Deep configuration (Fig. 15): 26 categorical
// features looked up once each, dense features joined directly to the deep
// tower.
func WnD() Config {
	c := Config{
		Name:      "WnD",
		DenseDim:  13,
		BottomMLP: nil,
		TopMLP:    []int{512, 256, 1},
		EVDim:     64,
		Tables:    26,
		Lookups:   1,
		Seed:      0x0005,
	}
	c.RowsPerTable = c.RowsForBudget(TableIIIBudget)
	return c
}

// AllConfigs returns every built-in model, RMCs first.
func AllConfigs() []Config {
	return []Config{RMC1(), RMC2(), RMC3(), NCF(), WnD()}
}

// ConfigByName returns the built-in model with the given name.
func ConfigByName(name string) (Config, error) {
	for _, c := range AllConfigs() {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("model: unknown model %q", name)
}

// Layer is one fully connected layer.
type Layer struct {
	W *tensor.Matrix // Out x In
	B tensor.Vector  // Out
	// Final marks the network output layer (sigmoid instead of ReLU).
	Final bool
}

// Forward applies the layer to x.
func (l Layer) Forward(x tensor.Vector) tensor.Vector {
	y := l.W.MatVecBias(x, l.B)
	if l.Final {
		return tensor.Sigmoid(y)
	}
	return tensor.ReLU(y)
}

// In returns the layer's input width, Out its output width.
func (l Layer) In() int  { return l.W.Cols }
func (l Layer) Out() int { return l.W.Rows }

// FLOPs returns the multiply-accumulate work of the layer (2*R*C).
func (l Layer) FLOPs() int64 { return 2 * int64(l.W.Rows) * int64(l.W.Cols) }

// Model is a materialised recommendation model: configuration plus weights.
//
// The weights — Bottom, Top and every layer's W and B — are read-only after
// Build and BuildResident (whose mapping makes a write fault): nothing
// writes them, so one Model may back any number of devices, shards and
// array members, read concurrently from their goroutines. They depend only
// on Cfg's seed and layer dimensions, never on its row space (RowsPerTable,
// RowBase, RowStride), so a Model that keeps the layers and swaps in a
// config differing only there is the same model over other rows.
type Model struct {
	Cfg    Config
	Bottom []Layer
	Top    []Layer
}

// Build materialises the model's MLP weights deterministically from the
// config seed, on the GC heap: one slice holds every layer's weights, so a
// dropped model is freed like any other value. Weight scale is kept small so
// deep towers do not saturate the float32 range. It fills on the calling
// goroutine alone, so a build costs its few allocations and no goroutine.
func Build(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return layout(cfg, make([]float32, cfg.MLPWeightBytes()/4), 1), nil
}

// BuildResident is Build for a model that lives as long as the process: the
// weights go into one anonymous private mapping outside the GC heap, which
// is made read-only once filled and never unmapped (resident_unix.go;
// platforms without mprotect get a heap slice). Off-heap bytes do not raise
// the GC's heap goal, so a hosted model's weights no longer let as many
// bytes of request garbage pile up between collections; but the GC cannot
// see them either, so code that builds and drops models uses Build. The
// fill is split across GOMAXPROCS goroutines, which gives the same weights
// as Build's serial fill (see layout).
func BuildResident(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var m *Model
	fill := func(data []float32) { m = layout(cfg, data, runtime.GOMAXPROCS(0)) }
	if err := residentWeights(int(cfg.MLPWeightBytes()/4), fill); err != nil {
		return nil, fmt.Errorf("model %s: %w", cfg.Name, err)
	}
	return m, nil
}

// layout carves every layer's W and B out of data, which holds exactly
// cfg.MLPWeightBytes()/4 elements: the bottom tower then the top, each
// layer's W then its B. It fills them from the config seed, so the weights
// do not depend on where data lives. The model's layers and matrix headers
// take one allocation each.
//
// Each weight matrix's rows are filled in `workers` contiguous chunks:
// chunk 0 on the calling goroutine, the others on goroutines that layout
// joins before it returns. Every weight is a pure function of (seed, row,
// column), so the split cannot change one; with one worker nothing is
// spawned.
func layout(cfg Config, data []float32, workers int) *Model {
	nb := len(cfg.BottomMLP)
	layers := make([]Layer, nb+len(cfg.TopMLP))
	mats := make([]tensor.Matrix, len(layers))
	var wg *sync.WaitGroup
	if workers > 1 {
		// Allocated only here: a WaitGroup that goroutines share lives
		// on the heap, and the one-worker build needs none.
		wg = new(sync.WaitGroup)
	}
	fill := func(w *tensor.Matrix, seed uint64, scale float32) {
		chunk := (w.Rows + workers - 1) / workers
		for r0 := chunk; r0 < w.Rows; r0 += chunk {
			wg.Add(1)
			go func(r0, r1 int) {
				defer wg.Done()
				tensor.FillMatrixRows(w, seed, scale, r0, r1)
			}(r0, min(r0+chunk, w.Rows))
		}
		tensor.FillMatrixRows(w, seed, scale, 0, chunk)
	}
	carve := func(layers []Layer, mats []tensor.Matrix, dims []int, in int, seedBase uint64, final bool) {
		for i, out := range dims {
			n := out * in
			w := &mats[i]
			*w = tensor.Matrix{Rows: out, Cols: in, Stride: in, Data: data[:n:n]}
			fill(w, seedBase+uint64(i)*2, float32(1/math.Sqrt(float64(in))))
			b := tensor.Vector(data[n : n+out : n+out])
			tensor.FillVector(b, seedBase+uint64(i)*2+1, 0.01)
			data = data[n+out:]
			layers[i] = Layer{W: w, B: b, Final: final && i == len(dims)-1}
			in = out
		}
	}
	m := &Model{Cfg: cfg, Bottom: layers[:nb:nb], Top: layers[nb:]}
	carve(m.Bottom, mats[:nb], cfg.BottomMLP, cfg.DenseDim, cfg.Seed^0xb07700, false)
	carve(m.Top, mats[nb:], cfg.TopMLP, cfg.TopInputDim(), cfg.Seed^0x70b, true)
	if wg != nil {
		wg.Wait()
	}
	return m
}

// Validate reports whether m is servable: its config validates, every
// layer has the shape Build gives that config, and every weight matrix's
// storage covers that shape.
func (m *Model) Validate() error {
	if err := m.Cfg.Validate(); err != nil {
		return err
	}
	check := func(tower string, layers []Layer, dims []int, in int) error {
		if len(layers) != len(dims) {
			return fmt.Errorf("model %s: %d %s layers, config has %d", m.Cfg.Name, len(layers), tower, len(dims))
		}
		for i, l := range layers {
			if l.W == nil || l.W.Rows != dims[i] || l.W.Cols != in || len(l.B) != dims[i] {
				return fmt.Errorf("model %s: %s layer %d is not %dx%d", m.Cfg.Name, tower, i, dims[i], in)
			}
			if w := l.W; w.Stride < w.Cols || len(w.Data) < (w.Rows-1)*w.Stride+w.Cols {
				return fmt.Errorf("model %s: %s layer %d: %d weights at stride %d do not cover %dx%d",
					m.Cfg.Name, tower, i, len(w.Data), w.Stride, w.Rows, w.Cols)
			}
			in = dims[i]
		}
		return nil
	}
	if err := check("bottom", m.Bottom, m.Cfg.BottomMLP, m.Cfg.DenseDim); err != nil {
		return err
	}
	return check("top", m.Top, m.Cfg.TopMLP, m.Cfg.TopInputDim())
}

// MustBuild is Build, panicking on error.
func MustBuild(cfg Config) *Model {
	m, err := Build(cfg)
	if err != nil {
		panic(fmt.Sprintf("model: %v", err))
	}
	return m
}

// EmbeddingValue returns element e of the embedding vector at (table, row).
// The row passes through the config's RowBase/RowStride remap, so a member
// device of a partitioned array generates the same bytes for its local row
// that the logical model generates for the global row it hosts.
func (m *Model) EmbeddingValue(table int, row int64, e int) float32 {
	return tensor.HashFloat(m.Cfg.Seed^0xe3b, uint64(table), uint64(m.Cfg.GlobalRow(row)), uint64(e))
}

// EmbeddingVector materialises the embedding vector at (table, row).
func (m *Model) EmbeddingVector(table int, row int64) tensor.Vector {
	v := make(tensor.Vector, m.Cfg.EVDim)
	for e := range v {
		v[e] = m.EmbeddingValue(table, row, e)
	}
	return v
}

// EVBytes encodes the embedding vector at (table, row) exactly as stored on
// the simulated SSD: little-endian FP32.
func (m *Model) EVBytes(table int, row int64) []byte {
	buf := make([]byte, m.Cfg.EVSize())
	m.EVBytesInto(table, row, 0, buf)
	return buf
}

// EVBytesInto fills buf with the on-SSD byte encoding of the vector at
// (table, row) starting from byte offset `from` within the vector: buf
// becomes bytes [from, from+len(buf)) of the vector's little-endian FP32
// image, at any offset and length. It folds the vector's (seed, table,
// row) hash prefix once and hashes the whole elements in the range with
// one tensor.HashFloatBytes call, bit-identical to EmbeddingValue per
// element; an element the range cuts at either end is encoded on its own
// and its part copied.
func (m *Model) EVBytesInto(table int, row int64, from int, buf []byte) {
	p := tensor.HashPrefix(m.Cfg.Seed^0xe3b, uint64(table), uint64(m.Cfg.GlobalRow(row)))
	e := from / 4
	if head := from % 4; head != 0 {
		w := evElementBytes(p, e)
		n := copy(buf, w[head:])
		buf, e = buf[n:], e+1
	}
	whole := len(buf) &^ 3
	tensor.HashFloatBytes(buf[:whole], p, uint64(e), 1)
	if tail := buf[whole:]; len(tail) > 0 {
		w := evElementBytes(p, e+whole/4)
		copy(tail, w[:])
	}
}

// evElementBytes is the little-endian encoding of element e of the vector
// whose hash prefix is p.
func evElementBytes(p uint64, e int) [4]byte {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], math.Float32bits(tensor.HashFloatFrom(p, uint64(e))))
	return w
}

// DecodeEV decodes an on-SSD vector image back to floats.
func DecodeEV(buf []byte) tensor.Vector {
	v := make(tensor.Vector, len(buf)/4)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return v
}

// AccumulateEV adds the float32 vector encoded in buf into dst without
// allocating: bit-for-bit equivalent to
// tensor.AccumulateInto(dst, DecodeEV(buf)), but it is the lookup engines'
// per-lookup hot path, so the intermediate vector is elided.
func AccumulateEV(dst tensor.Vector, buf []byte) {
	if len(buf) != 4*len(dst) {
		panic(fmt.Sprintf("model: %d EV bytes for a dim-%d accumulator", len(buf), len(dst)))
	}
	for i := range dst {
		dst[i] += math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
}

// PoolReference computes the SparseLengthsSum pooling for one table from
// the deterministic generator: the ground truth every SLS implementation
// must reproduce.
func (m *Model) PoolReference(table int, rows []int64) tensor.Vector {
	sum := make(tensor.Vector, m.Cfg.EVDim)
	for _, r := range rows {
		for e := 0; e < m.Cfg.EVDim; e++ {
			sum[e] += m.EmbeddingValue(table, r, e)
		}
	}
	return sum
}

// BottomForward runs the bottom tower (identity when there is none).
func (m *Model) BottomForward(dense tensor.Vector) tensor.Vector {
	x := dense
	for _, l := range m.Bottom {
		x = l.Forward(x)
	}
	return x
}

// TopForward runs the top tower over the feature-interaction vector.
func (m *Model) TopForward(z tensor.Vector) tensor.Vector {
	x := z
	for _, l := range m.Top {
		x = l.Forward(x)
	}
	return x
}

// Interact concatenates the bottom output with the pooled embedding
// results in table order (the paper's feature interaction).
func (m *Model) Interact(bottomOut tensor.Vector, pooled []tensor.Vector) tensor.Vector {
	parts := make([]tensor.Vector, 0, 1+len(pooled))
	parts = append(parts, bottomOut)
	parts = append(parts, pooled...)
	return tensor.Concat(parts...)
}

// Infer runs a complete reference inference: the DRAM-resident ground
// truth. sparse[t] lists the pooled lookup rows for table t.
func (m *Model) Infer(dense tensor.Vector, sparse [][]int64) float32 {
	if len(sparse) != m.Cfg.Tables {
		panic(fmt.Sprintf("model: %s: %d sparse inputs, want %d", m.Cfg.Name, len(sparse), m.Cfg.Tables))
	}
	pooled := make([]tensor.Vector, m.Cfg.Tables)
	for t := range pooled {
		pooled[t] = m.PoolReference(t, sparse[t])
	}
	z := m.Interact(m.BottomForward(dense), pooled)
	return m.TopForward(z)[0]
}

// --- Host-side cost model (the Fig. 2 breakdown) ---

// hostFLOPS returns the effective host floating-point rate for a batch of
// b inferences: single-stream rate at b = 1, saturating to the vectorised
// multi-core peak as the batch grows.
func hostFLOPS(b int) float64 {
	r := params.CPUFLOPS * float64(b)
	if r > params.CPUPeakFLOPS {
		return params.CPUPeakFLOPS
	}
	return r
}

// mlpTimeBatch prices a tower on the host CPU for a batch iteration of b
// inferences: per-layer dispatch is paid once per batch, FLOPs amortise
// with batching.
func mlpTimeBatch(layers []Layer, b int) time.Duration {
	var d time.Duration
	for _, l := range layers {
		secs := float64(b) * float64(l.FLOPs()) / hostFLOPS(b)
		d += time.Duration(secs*1e9)*time.Nanosecond + params.CPULayerOverhead
	}
	return d
}

// BottomTime returns the host CPU time of the bottom tower (bot-mlp).
func (m *Model) BottomTime() time.Duration { return mlpTimeBatch(m.Bottom, 1) }

// TopTime returns the host CPU time of the top tower (top-mlp).
func (m *Model) TopTime() time.Duration { return mlpTimeBatch(m.Top, 1) }

// BottomTimeBatch returns the bottom-tower host time for a batch iteration.
func (m *Model) BottomTimeBatch(b int) time.Duration { return mlpTimeBatch(m.Bottom, b) }

// TopTimeBatch returns the top-tower host time for a batch iteration.
func (m *Model) TopTimeBatch(b int) time.Duration { return mlpTimeBatch(m.Top, b) }

// ConcatTime returns the host cost of feature interaction (concat).
func (m *Model) ConcatTime() time.Duration {
	bytes := 4 * m.Cfg.TopInputDim()
	return time.Duration(bytes/params.CPUConcatBytesPerNanosecond) * time.Nanosecond
}

// SLSComputeTime returns the host CPU cost of gathering and summing the
// inference's embedding vectors once they are memory-resident (emb-op).
func (m *Model) SLSComputeTime() time.Duration { return m.SLSComputeTimeBatch(1) }

// SLSComputeTimeBatch returns the pooling cost of a batch iteration: the
// per-lookup gather cost amortises toward the vectorised rate as the batch
// grows.
func (m *Model) SLSComputeTimeBatch(b int) time.Duration {
	lookups := int64(b) * int64(m.Cfg.Tables) * int64(m.Cfg.Lookups)
	per := params.CPULookupCost / time.Duration(b)
	if per < params.CPULookupCostBatched {
		per = params.CPULookupCostBatched
	}
	gather := time.Duration(lookups) * per
	adds := time.Duration(lookups*int64(m.Cfg.EVDim)/params.CPUAccumulateElemsPerNanosecond) * time.Nanosecond
	return gather + adds
}

// HostOverheadTime returns the fixed per-batch-iteration framework cost.
func (m *Model) HostOverheadTime() time.Duration { return params.CPUInferenceOverhead }
