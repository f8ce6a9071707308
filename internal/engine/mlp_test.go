package engine

import (
	"fmt"
	"math"
	"testing"

	"rmssd/internal/fpga"
	"rmssd/internal/model"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
)

func buildEngine(t *testing.T, cfg model.Config, d Design) *MLPEngine {
	t.Helper()
	m := model.MustBuild(cfg)
	e, err := NewMLPEngine(m, d, params.XCVU9P)
	if err != nil {
		t.Fatalf("%s/%v: %v", cfg.Name, d, err)
	}
	return e
}

func referencePooled(m *model.Model, seed uint64) (tensor.Vector, [][]int64, []tensor.Vector) {
	rng := tensor.NewRNG(seed)
	dense := make(tensor.Vector, m.Cfg.DenseDim)
	tensor.FillVector(dense, seed, 1)
	sparse := make([][]int64, m.Cfg.Tables)
	pooled := make([]tensor.Vector, m.Cfg.Tables)
	for t := range sparse {
		for i := 0; i < m.Cfg.Lookups; i++ {
			sparse[t] = append(sparse[t], int64(rng.Intn(int(m.Cfg.RowsPerTable))))
		}
		pooled[t] = m.PoolReference(t, sparse[t])
	}
	return dense, sparse, pooled
}

func testCfg(name string) model.Config {
	c, err := model.ConfigByName(name)
	if err != nil {
		panic(fmt.Sprintf("engine: %v", err))
	}
	c.RowsPerTable = 4096
	return c
}

// The decomposed/composed topology must compute the same function as the
// reference model, for every built-in model and design.
func TestForwardMatchesReference(t *testing.T) {
	for _, name := range []string{"RMC1", "RMC2", "RMC3", "NCF", "WnD"} {
		for _, d := range []Design{DesignNaive, DesignDefault, DesignSearched} {
			cfg := testCfg(name)
			e := buildEngine(t, cfg, d)
			m := e.Model()
			dense, sparse, pooled := referencePooled(m, 42)
			want := m.Infer(dense, sparse)
			got := e.Forward(dense, pooled)
			if math.Abs(float64(got-want)) > 1e-4 {
				t.Errorf("%s/%v: forward %v, reference %v", name, d, got, want)
			}
		}
	}
}

func TestIntraLayerDecompositionStructure(t *testing.T) {
	e := buildEngine(t, testCfg("RMC1"), DesignSearched)
	// RMC1 bottom: b0, b1 plus the decomposed tb (Table V's Lb0, Lb1, Lb).
	if len(e.Bottom) != 3 {
		t.Fatalf("bottom layers = %d, want 3 (2 + tb)", len(e.Bottom))
	}
	tb := e.Bottom[2]
	if tb.R != 32 || tb.C != 256 || !tb.NoActivation {
		t.Fatalf("tb = %+v", tb)
	}
	if e.Emb == nil || e.Emb.R != 256 || e.Emb.C != 256 {
		t.Fatalf("Le = %+v", e.Emb)
	}
	// Top keeps t1, t2 only.
	if len(e.Top) != 2 {
		t.Fatalf("top layers = %d, want 2", len(e.Top))
	}
	if e.JoinBias == nil {
		t.Fatal("join bias missing")
	}
}

func TestNaiveHasNoDecomposition(t *testing.T) {
	e := buildEngine(t, testCfg("RMC1"), DesignNaive)
	if e.Emb != nil {
		t.Fatal("naive design must not decompose")
	}
	if len(e.Top) != 3 || e.Top[0].R != 288 {
		t.Fatalf("naive top = %d layers, L0 R=%d", len(e.Top), e.Top[0].R)
	}
}

func TestNCFHasNoBottomTower(t *testing.T) {
	e := buildEngine(t, testCfg("NCF"), DesignSearched)
	if len(e.Bottom) != 0 {
		t.Fatalf("NCF bottom = %d layers, want 0", len(e.Bottom))
	}
	if e.Emb == nil || e.Emb.R != 256 {
		t.Fatalf("NCF Le = %+v", e.Emb)
	}
}

func TestWnDDensePassthrough(t *testing.T) {
	e := buildEngine(t, testCfg("WnD"), DesignSearched)
	if len(e.Bottom) != 1 || e.Bottom[0].R != 13 {
		t.Fatalf("WnD bottom = %+v", e.Bottom)
	}
}

func TestRuleOneDRAMAssignment(t *testing.T) {
	// RMC3's 12.23 MB of weights exceed XCVU9P's usable BRAM; the
	// largest layer (2560x1024 ~ 10 MB) must move to DRAM with the
	// Rule Two kernel.
	e := buildEngine(t, testCfg("RMC3"), DesignSearched)
	var dram []*FCLayer
	for _, l := range e.Layers() {
		if l.InDRAM {
			dram = append(dram, l)
		}
	}
	if len(dram) == 0 {
		t.Fatal("RMC3 must have DRAM-resident layers on XCVU9P")
	}
	found := false
	for _, l := range dram {
		if l.R == 2560 && l.C == 1024 {
			found = true
			if l.Kr != 16 || l.Kc != params.KernelII {
				t.Fatalf("DRAM layer kernel = %dx%d, want 16x%d (Rule Two)", l.Kr, l.Kc, params.KernelII)
			}
		}
	}
	if !found {
		t.Fatal("the 2560x1024 layer must be DRAM-resident")
	}
	// Rule Two's time bound: RC/Dwidth cycles.
	want := sim.Cycles(2560) * 1024 / 16
	for _, l := range dram {
		if l.R == 2560 {
			if got := l.Cycles(params.KernelII); got != want {
				t.Fatalf("DRAM layer cycles = %d, want %d (RC/Dwidth)", got, want)
			}
		}
	}
}

func TestRMC1AllWeightsFitBRAM(t *testing.T) {
	for _, name := range []string{"RMC1", "RMC2"} {
		e := buildEngine(t, testCfg(name), DesignSearched)
		for _, l := range e.Layers() {
			if l.InDRAM {
				t.Fatalf("%s layer %s should fit in BRAM", name, l.Name)
			}
		}
	}
}

func TestSearchSatisfiesEq2(t *testing.T) {
	for _, name := range []string{"RMC1", "RMC2", "RMC3", "NCF", "WnD"} {
		e := buildEngine(t, testCfg(name), DesignSearched)
		nb := e.NBatch
		emb := e.EmbStageCycles(nb, params.NumChannels, params.DiesPerChannel)
		if bot := e.BottomStageCycles(nb); bot > emb {
			t.Errorf("%s: Tbot' %d > Temb' %d", name, bot, emb)
		}
		if top := e.TopStageCycles(nb); top > emb {
			t.Errorf("%s: Ttop' %d > Temb' %d", name, top, emb)
		}
		if !e.chainingOK() {
			t.Errorf("%s: chaining constraints violated", name)
		}
		if !e.minWorkOK() {
			t.Errorf("%s: Eq. 4 violated", name)
		}
	}
}

func TestSearchReducesResources(t *testing.T) {
	// Table VI's headline: the searched kernels cost dramatically less
	// than the default setting at the same throughput.
	for _, name := range []string{"RMC1", "RMC2", "RMC3"} {
		def := buildEngine(t, testCfg(name), DesignDefault)
		op := buildEngine(t, testCfg(name), DesignSearched)
		rd, ro := def.Resources(), op.Resources()
		if ro.DSP*2 > rd.DSP {
			t.Errorf("%s: DSP op=%d vs default=%d, want >=2x reduction", name, ro.DSP, rd.DSP)
		}
		if ro.LUT >= rd.LUT {
			t.Errorf("%s: LUT op=%d vs default=%d", name, ro.LUT, rd.LUT)
		}
	}
}

func TestSearchedSamePerformanceAsDefault(t *testing.T) {
	// "Thanks to the intrinsic constraints of embedding access, the
	// default and optimized kernel setting can achieve the same
	// performance": both must be embedding-bound.
	for _, name := range []string{"RMC1", "RMC2"} {
		def := buildEngine(t, testCfg(name), DesignDefault)
		op := buildEngine(t, testCfg(name), DesignSearched)
		nb := op.NBatch
		e1 := def.EmbStageCycles(nb, params.NumChannels, params.DiesPerChannel)
		e2 := op.EmbStageCycles(nb, params.NumChannels, params.DiesPerChannel)
		if e1 != e2 {
			t.Errorf("%s: default Temb %d vs searched %d", name, e1, e2)
		}
	}
}

func TestRMC12BatchOneFeasible(t *testing.T) {
	// Embedding-dominated models need no batching (Rule Three default).
	for _, name := range []string{"RMC1", "RMC2"} {
		e := buildEngine(t, testCfg(name), DesignSearched)
		if e.NBatch != 1 {
			t.Errorf("%s NBatch = %d, want 1", name, e.NBatch)
		}
	}
}

func TestRMC3BatchConversion(t *testing.T) {
	// Rule Three must raise the batch size for the MLP-dominated RMC3
	// until it converts to embedding-dominated (Fig. 12c's story).
	e := buildEngine(t, testCfg("RMC3"), DesignSearched)
	if e.NBatch < 2 {
		t.Fatalf("RMC3 NBatch = %d, want >= 2", e.NBatch)
	}
	nb := e.NBatch
	emb := e.EmbStageCycles(nb, params.NumChannels, params.DiesPerChannel)
	bot := e.BottomStageCycles(nb)
	if bot > emb {
		t.Fatal("after conversion the model must be embedding-bound")
	}
}

func TestTableVIOrderOfMagnitude(t *testing.T) {
	// RMC1/RMC2 share MLP shapes in Table VI's first block: naive
	// ~155K LUT / 612 DSP, searched ~19K LUT / 41 DSP. Check we land in
	// the same decade on the searched design.
	op := buildEngine(t, testCfg("RMC1"), DesignSearched)
	r := op.Resources()
	if r.LUT > 40_000 {
		t.Errorf("RMC1 MLP-op LUT = %d, want tens of thousands", r.LUT)
	}
	if r.DSP > 120 {
		t.Errorf("RMC1 MLP-op DSP = %d, want tens", r.DSP)
	}
	naive := buildEngine(t, testCfg("RMC1"), DesignNaive)
	rn := naive.Resources()
	if rn.DSP < 400 {
		t.Errorf("RMC1 MLP-naive DSP = %d, want ~612", rn.DSP)
	}
}

func TestRMC3FitsLowEndOnlyWhenSearched(t *testing.T) {
	// Table VI: "RMC3 cannot work with both default settings and naive
	// MLP design" on the XC7A200T, but the searched design can.
	m := model.MustBuild(testCfg("RMC3"))
	naive, err := NewMLPEngine(m, DesignNaive, params.XC7A200T)
	if err != nil {
		t.Fatal(err)
	}
	if naive.FitsPart() {
		t.Fatalf("naive RMC3 fits XC7A200T (%s): calibration off", naive.Resources())
	}
	op, err := NewMLPEngine(m, DesignSearched, params.XC7A200T)
	if err != nil {
		t.Fatal(err)
	}
	if !op.FitsPart() {
		t.Fatalf("searched RMC3 does not fit XC7A200T (%s)", op.Resources())
	}
}

func TestKernelsSummary(t *testing.T) {
	e := buildEngine(t, testCfg("RMC1"), DesignSearched)
	ks := e.Kernels()
	if len(ks) != 6 { // b0,b1,tb,Le,t1,t2 — Table V's six RMC1 columns
		t.Fatalf("kernel rows = %d, want 6", len(ks))
	}
	for _, k := range ks {
		if k.Kr < 1 || k.Kc < 1 || k.Kr > 16 || k.Kc > 16 {
			t.Fatalf("kernel %s = %dx%d out of range", k.Layer, k.Kr, k.Kc)
		}
		if k.Kr&(k.Kr-1) != 0 || k.Kc&(k.Kc-1) != 0 {
			t.Fatalf("kernel %s = %dx%d not powers of two", k.Layer, k.Kr, k.Kc)
		}
	}
}

func TestCompositionHalvesTowerTime(t *testing.T) {
	// Inter-layer composition (Fig. 9): pairing reduces the tower time
	// versus serialising all layers.
	e := buildEngine(t, testCfg("RMC1"), DesignDefault)
	var serial sim.Cycles
	for _, l := range e.Top {
		serial += l.Cycles(params.KernelII)
	}
	paired := e.pairCycles(e.Top)
	if paired >= serial && len(e.Top) > 1 {
		t.Fatalf("paired %d vs serial %d: composition must help", paired, serial)
	}
}

func TestBatchWaves(t *testing.T) {
	e := buildEngine(t, testCfg("RMC1"), DesignDefault)
	base := e.BottomStageCycles(1)
	if e.BottomStageCycles(params.KernelII) != base {
		t.Fatal("batches within II must share pipeline slots")
	}
	if e.BottomStageCycles(params.KernelII+1) != 2*base {
		t.Fatal("batch beyond II must add a wave")
	}
}

func TestFCLayerCycles(t *testing.T) {
	l := &FCLayer{R: 256, C: 256, Kr: 16, Kc: 16}
	if got := l.Cycles(8); got != 2048 { // 16*16*8
		t.Fatalf("Cycles = %d, want 2048", got)
	}
	l2 := &FCLayer{R: 13, C: 128, Kr: 16, Kc: 16}
	if got := l2.Cycles(8); got != 64 { // 1*8*8
		t.Fatalf("Cycles = %d, want 64", got)
	}
	var nilLayer *FCLayer
	if nilLayer.Cycles(8) != 0 || nilLayer.WeightBytes() != 0 {
		t.Fatal("nil layer should cost nothing")
	}
}

func TestDesignString(t *testing.T) {
	if DesignNaive.String() != "MLP-naive" || DesignDefault.String() != "MLP" || DesignSearched.String() != "MLP-op" {
		t.Fatal("Design.String broken")
	}
	if Design(9).String() == "" {
		t.Fatal("unknown design should format")
	}
}

func TestStageTimesPositive(t *testing.T) {
	e := buildEngine(t, testCfg("RMC2"), DesignSearched)
	emb, bot, top := e.StageTimes(e.NBatch, params.NumChannels, params.DiesPerChannel)
	if emb <= 0 || bot <= 0 || top <= 0 {
		t.Fatalf("stage times = %v %v %v", emb, bot, top)
	}
	if bot > emb || top > emb {
		t.Fatal("embedding must be the bottleneck stage after search")
	}
}

func TestPow2Helpers(t *testing.T) {
	if pow2Floor(1) != 1 || pow2Floor(15) != 8 || pow2Floor(16) != 16 {
		t.Fatal("pow2Floor broken")
	}
	if pow2Ceil(1) != 1 || pow2Ceil(9) != 16 || pow2Ceil(16) != 16 {
		t.Fatal("pow2Ceil broken")
	}
	if maxKernelDim(13) != 16 || maxKernelDim(1) != 1 || maxKernelDim(4096) != 16 {
		t.Fatal("maxKernelDim broken")
	}
}

// TestEVSumRingFitsBesideSearchedEngine: the device's emb stage holds
// sim.LaneDepth batches, each pooling into its own EV-Sum buffer of
// NBatch·Tables·EVDim float32 sums. That ring's BRAM fits beside the
// searched MLP engine of every built-in model on both parts.
func TestEVSumRingFitsBesideSearchedEngine(t *testing.T) {
	for _, name := range []string{"RMC1", "RMC2", "RMC3", "NCF", "WnD"} {
		cfg := testCfg(name)
		m := model.MustBuild(cfg)
		for _, part := range []params.FPGAPart{params.XCVU9P, params.XC7A200T} {
			e, err := NewMLPEngine(m, DesignSearched, part)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, part.Name, err)
			}
			buf := fpga.BRAMBlocksFor(int64(e.NBatch) * int64(cfg.Tables) * int64(cfg.EVSize()))
			r := e.Resources()
			t.Logf("%-4s %-8s NBatch %d: engine %.1f + ring %d×%.0f BRAM of %.0f",
				name, part.Name, e.NBatch, r.BRAM, sim.LaneDepth, buf, part.BRAM)
			r.BRAM += sim.LaneDepth * buf
			if !r.FitsIn(part) {
				t.Fatalf("%s on %s: searched engine plus a %d-buffer EV-Sum ring (%s) exceeds the part",
					name, part.Name, sim.LaneDepth, r)
			}
		}
	}
}
