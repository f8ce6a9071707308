package engine

import (
	"fmt"

	"rmssd/internal/fpga"
	"rmssd/internal/model"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
)

// Design selects how the MLP Acceleration Engine maps the model onto the
// FPGA (the three rows of Table VI).
type Design int

const (
	// DesignSearched is the full RM-SSD mapping: intra-layer
	// decomposition, inter-layer composition and the kernel search of
	// Section IV-C4 (Table VI row "MLP-op"). It is the zero value, so an
	// unconfigured device is the complete system.
	DesignSearched Design = iota
	// DesignDefault applies decomposition and composition but keeps the
	// default kernel sizes (Table VI row "MLP").
	DesignDefault
	// DesignNaive is the conventional layer-by-layer GEMM mapping used
	// by near-memory accelerators (Centaur-style): no intra-layer
	// decomposition, no inter-layer composition, default 16x16 kernels,
	// no pipelining.
	DesignNaive
)

// String implements fmt.Stringer.
func (d Design) String() string {
	switch d {
	case DesignNaive:
		return "MLP-naive"
	case DesignDefault:
		return "MLP"
	case DesignSearched:
		return "MLP-op"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// FCLayer is one fully connected layer mapped onto the FPGA.
type FCLayer struct {
	Name string
	R, C int // inputs, outputs
	// Kernel size (kr along rows/inputs, kc along columns/outputs).
	Kr, Kc int
	// InDRAM marks layers whose weights live in off-chip DRAM
	// (Rule One/Two); their kernel is fixed to (Dwidth, II).
	InDRAM bool
	// Weights; W is C x R so y = W*x. W is the hosted model's matrix or,
	// for the decomposed top L0 halves, a SplitCols view of it: every
	// engine over one model.Model reads the same storage, and nothing
	// ever writes it.
	W *tensor.Matrix
	B tensor.Vector // nil for partial layers whose bias is applied at the join
	// Final applies the sigmoid output activation.
	Final bool
	// NoActivation marks partial layers (tb, Le) whose results join at
	// an adder before the activation.
	NoActivation bool
}

// Cycles returns the layer's kernel-streaming time in FPGA cycles:
// ceil(R/kr) * ceil(C/kc) * II (the paper's RC/(kr*kc)*II with integer
// block boundaries). DRAM-resident layers are additionally floored at the
// weight-fetch time RC/Dwidth (Rule Two): a kernel larger than the DRAM
// interface can feed simply starves.
func (l *FCLayer) Cycles(ii int) sim.Cycles {
	if l == nil {
		return 0
	}
	c := fpga.KernelStreamCycles(l.R, l.C, l.Kr, l.Kc, ii)
	if l.InDRAM {
		c = sim.MaxCycles(c, fpga.DRAMFetchCycles(l.R, l.C))
	}
	return c
}

// WeightBytes returns the FP32 weight footprint.
func (l *FCLayer) WeightBytes() int64 {
	if l == nil {
		return 0
	}
	return 4 * int64(l.R) * int64(l.C)
}

// Forward applies the layer functionally.
func (l *FCLayer) Forward(x tensor.Vector) tensor.Vector {
	var y tensor.Vector
	if l.B != nil {
		y = l.W.MatVecBias(x, l.B)
	} else {
		y = l.W.MatVec(x)
	}
	if l.NoActivation {
		return y
	}
	if l.Final {
		return tensor.Sigmoid(y)
	}
	return tensor.ReLU(y)
}

// MLPEngine is the MLP Acceleration Engine: the model's towers remapped to
// the RM-SSD topology of Fig. 8.
type MLPEngine struct {
	m      *model.Model
	design Design
	part   params.FPGAPart
	ii     int
	// channels and dies describe the flash array the engine shares the
	// device with; they determine the embedding-stage time the kernel
	// search balances against.
	channels, dies int

	// Bottom holds the extended bottom MLP: b0..b_{n-1} plus tb, the
	// bottom half of the decomposed top L0 (absent when the model has no
	// bottom tower input).
	Bottom []*FCLayer
	// Emb is Le: the embedding half of the decomposed top L0, part of
	// the extended embedding stage (Eq. 1a's second term).
	Emb *FCLayer
	// Top holds the shortened top MLP t1.. (Eq. 1c numbering).
	Top []*FCLayer
	// JoinBias is top L0's bias, applied at the te adder where the tb
	// and Le partial results meet.
	JoinBias tensor.Vector

	// NBatch is the batch size chosen by Rule Three.
	NBatch int
}

// NewMLPEngine remaps the model for the given design and FPGA part over
// the Table II flash geometry. For DesignSearched the kernel search runs
// immediately.
func NewMLPEngine(m *model.Model, design Design, part params.FPGAPart) (*MLPEngine, error) {
	return NewMLPEngineGeo(m, design, part, params.NumChannels, params.DiesPerChannel)
}

// NewMLPEngineGeo is NewMLPEngine for an explicit flash geometry (channel
// and die counts), which the kernel search balances against.
func NewMLPEngineGeo(m *model.Model, design Design, part params.FPGAPart, channels, dies int) (*MLPEngine, error) {
	e := &MLPEngine{m: m, design: design, part: part, ii: params.KernelII,
		channels: channels, dies: dies, NBatch: 1}
	cfg := m.Cfg

	for i, l := range m.Bottom {
		e.Bottom = append(e.Bottom, &FCLayer{
			Name: fmt.Sprintf("Lb%d", i),
			R:    l.In(), C: l.Out(),
			W: l.W, B: l.B,
		})
	}

	top0 := m.Top[0]
	botDim := cfg.BottomOutDim()
	embDim := cfg.EVDim * cfg.Tables
	if design == DesignNaive {
		// No decomposition: top L0 stays whole and is the first layer
		// of the top tower; the embedding stage has no FC component.
		e.Top = append(e.Top, &FCLayer{
			Name: "Lt0",
			R:    top0.In(), C: top0.Out(),
			W: top0.W, B: top0.B, Final: top0.Final,
		})
	} else {
		if botDim > 0 {
			wb, we := top0.W.SplitCols(botDim)
			e.Bottom = append(e.Bottom, &FCLayer{
				Name: "Lb(tb)",
				R:    botDim, C: top0.Out(),
				W: wb, NoActivation: true,
			})
			e.Emb = &FCLayer{
				Name: "Le",
				R:    embDim, C: top0.Out(),
				W: we, NoActivation: true,
			}
		} else {
			// No dense tower at all (NCF): top L0 is entirely the
			// embedding half.
			e.Emb = &FCLayer{
				Name: "Le",
				R:    embDim, C: top0.Out(),
				W: top0.W, NoActivation: true,
			}
		}
		e.JoinBias = top0.B
	}
	for i := 1; i < len(m.Top); i++ {
		l := m.Top[i]
		e.Top = append(e.Top, &FCLayer{
			Name: fmt.Sprintf("Lt%d", i),
			R:    l.In(), C: l.Out(),
			W: l.W, B: l.B, Final: l.Final,
		})
	}

	e.assignDRAM()
	e.applyDefaultKernels()
	if design == DesignSearched {
		if err := e.Search(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Layers returns all FC layers in pipeline order.
func (e *MLPEngine) Layers() []*FCLayer {
	out := append([]*FCLayer{}, e.Bottom...)
	if e.Emb != nil {
		out = append(out, e.Emb)
	}
	return append(out, e.Top...)
}

// Design returns the engine's mapping variant.
func (e *MLPEngine) Design() Design { return e.design }

// Model returns the underlying model.
func (e *MLPEngine) Model() *model.Model { return e.m }

// assignDRAM applies Rule One: if the summed weight footprint exceeds the
// part's BRAM, the largest layers move to off-chip DRAM until the rest fit.
func (e *MLPEngine) assignDRAM() {
	layers := e.Layers()
	capacity := int64(e.part.BRAM) * params.BRAMBytes
	// Reserve a quarter of BRAM for stream buffers and control state.
	capacity = capacity * 3 / 4
	var total int64
	for _, l := range layers {
		total += l.WeightBytes()
	}
	for total > capacity {
		// Move the largest still-BRAM layer to DRAM.
		var biggest *FCLayer
		for _, l := range layers {
			if !l.InDRAM && (biggest == nil || l.WeightBytes() > biggest.WeightBytes()) {
				biggest = l
			}
		}
		if biggest == nil {
			break
		}
		biggest.InDRAM = true
		total -= biggest.WeightBytes()
	}
}

// applyDefaultKernels sets the pre-search kernel sizes. The naive design
// uses 16x16 everywhere (the conventional GEMM unit, which starves behind
// the DRAM interface for spilled layers). The RM-SSD designs use 16x16 for
// BRAM-only models and 8x8 when DRAM is involved, with Rule Two's
// (Dwidth, II) kernel on the spilled layers — matching the paper's "default
// kernel size of each layer in RMC1 and RMC2 is 16x16, while that of RMC3
// is 8x8, except for the first bottom layer with 16x8".
func (e *MLPEngine) applyDefaultKernels() {
	if e.design == DesignNaive {
		for _, l := range e.Layers() {
			l.Kr, l.Kc = clampKernel(l.R, 16), clampKernel(l.C, 16)
		}
		return
	}
	def := 16
	if e.anyDRAM() {
		def = 8
	}
	for _, l := range e.Layers() {
		if l.InDRAM {
			l.Kr, l.Kc = fpga.DRAMWordsPerCycle, e.ii
			continue
		}
		l.Kr, l.Kc = clampKernel(l.R, def), clampKernel(l.C, def)
	}
}

func (e *MLPEngine) anyDRAM() bool {
	for _, l := range e.Layers() {
		if l.InDRAM {
			return true
		}
	}
	return false
}

// clampKernel bounds a kernel dimension by the layer dimension (rounded to
// a power of two).
func clampKernel(dim, k int) int {
	for k > 1 && k > dim {
		k /= 2
	}
	return k
}

// --- Timing (Eq. 1) ---

// pairCycles computes a tower's stage time under inter-layer composition:
// adjacent layers exchange scan direction and overlap, so each pair costs
// the max of its two members (Eq. 1b/1c). The naive design has no
// composition, so layers serialize.
func (e *MLPEngine) pairCycles(layers []*FCLayer) sim.Cycles {
	var total sim.Cycles
	if e.design == DesignNaive {
		for _, l := range layers {
			total += l.Cycles(e.ii)
		}
		return total
	}
	for i := 0; i < len(layers); i += 2 {
		a := layers[i].Cycles(e.ii)
		if i+1 < len(layers) {
			a = sim.MaxCycles(a, layers[i+1].Cycles(e.ii))
		}
		total += a
	}
	return total
}

// batches returns how many II-deep pipeline waves the batch needs (a
// dimensionless multiplier for per-wave cycle counts): batch items up to the
// initiation interval share the kernel pipeline slots. The naive GEMM design
// processes items one at a time (no slot sharing).
func (e *MLPEngine) batches(nbatch int) int64 {
	if e.design == DesignNaive {
		if nbatch < 1 {
			return 1
		}
		return int64(nbatch)
	}
	w := (nbatch + e.ii - 1) / e.ii
	if w < 1 {
		w = 1
	}
	return int64(w)
}

// BottomStageCycles returns T_bot' for the batch (Eq. 1b).
func (e *MLPEngine) BottomStageCycles(nbatch int) sim.Cycles {
	return e.pairCycles(e.Bottom).Times(e.batches(nbatch))
}

// TopStageCycles returns T_top' for the batch (Eq. 1c).
func (e *MLPEngine) TopStageCycles(nbatch int) sim.Cycles {
	return e.pairCycles(e.Top).Times(e.batches(nbatch))
}

// EmbKernelCycles returns the FC component of the extended embedding stage
// (Eq. 1a's second term) for the batch.
func (e *MLPEngine) EmbKernelCycles(nbatch int) sim.Cycles {
	if e.Emb == nil {
		return 0
	}
	return e.Emb.Cycles(e.ii).Times(e.batches(nbatch))
}

// flashCycles returns the flash-array vector-read time of the batch in
// FPGA cycles (Eq. 1a's first term).
func (e *MLPEngine) flashCycles(nbatch, channels, dies int) sim.Cycles {
	return sim.DurationToCycles(TembEstimate(e.m.Cfg, nbatch, channels, dies), params.CycleTime)
}

// EmbStageCycles returns T_emb' (Eq. 1a): the max of the flash vector-read
// time and the Le kernel time for the batch.
func (e *MLPEngine) EmbStageCycles(nbatch, channels, dies int) sim.Cycles {
	return sim.MaxCycles(e.flashCycles(nbatch, channels, dies), e.EmbKernelCycles(nbatch))
}

// StageTimes returns the three pipeline stage times for a batch, in
// simulated time.
func (e *MLPEngine) StageTimes(nbatch, channels, dies int) (emb, bot, top sim.Time) {
	emb = params.Duration(e.EmbStageCycles(nbatch, channels, dies))
	bot = params.Duration(e.BottomStageCycles(nbatch))
	top = params.Duration(e.TopStageCycles(nbatch))
	return emb, bot, top
}

// --- Functional forward ---

// Forward computes one inference through the remapped topology. The result
// must match the host reference model up to FP32 summation-order effects.
func (e *MLPEngine) Forward(dense tensor.Vector, pooled []tensor.Vector) float32 {
	emb := tensor.Concat(pooled...)
	if e.design == DesignNaive {
		x := dense
		for _, l := range e.Bottom {
			x = l.Forward(x)
		}
		z := tensor.Concat(x, emb)
		for _, l := range e.Top {
			z = l.Forward(z)
		}
		return z[0]
	}
	var partB tensor.Vector
	if len(e.Bottom) > 0 {
		x := dense
		for _, l := range e.Bottom {
			x = l.Forward(x)
		}
		partB = x // tb output: un-activated partial product
	}
	partE := e.Emb.Forward(emb)
	// te join: sum partials, add L0 bias, ReLU (Fig. 8).
	z := partE
	if partB != nil {
		z = tensor.Add(partE, partB)
	}
	if e.JoinBias != nil {
		z = tensor.Add(z, e.JoinBias)
	}
	z = tensor.ReLU(z)
	for _, l := range e.Top {
		z = l.Forward(z)
	}
	return z[0]
}

// --- Resources (Table VI) ---

// Resources returns the fabric cost of the engine's FC kernels, weight
// storage and stream buffers. BRAM-resident weights are banked: each
// instantiated PE unit streams from its own block, so a layer costs at
// least PEUnits blocks even when its weights are small — the mechanism
// behind Table VI's BRAM gap between the naive and searched designs.
func (e *MLPEngine) Resources() fpga.Resources {
	var total fpga.Resources
	for _, l := range e.Layers() {
		if e.design == DesignNaive {
			total = total.Add(fpga.NaiveKernelResources(l.Kr, l.Kc))
		} else {
			total = total.Add(fpga.KernelResources(l.Kr, l.Kc, e.ii))
		}
		total = total.Add(fpga.AccumResources(l.C))
		total.BRAM += fpga.StreamBufferBRAM(l.C)
		if l.InDRAM {
			total.BRAM += fpga.DoubleBufferBRAM(e.ii)
			if l.Kr != fpga.DRAMWordsPerCycle || l.Kc != e.ii {
				total.LUT += params.DRAMRateConverterLUT
			}
		} else {
			total.BRAM += fpga.WeightBRAM(l.WeightBytes(), fpga.PEUnits(l.Kr, l.Kc, e.ii))
		}
	}
	return total
}

// FitsPart reports whether the engine fits its FPGA part.
func (e *MLPEngine) FitsPart() bool { return e.Resources().FitsIn(e.part) }

// Part returns the target FPGA part.
func (e *MLPEngine) Part() params.FPGAPart { return e.part }
