package model

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"rmssd/internal/tensor"
)

// smallConfig returns an RMC1-shaped model scaled down for fast tests.
func smallConfig() Config {
	c := RMC1()
	c.RowsPerTable = 4096
	return c
}

func TestTableIIIMLPSizes(t *testing.T) {
	// Table III reports MLP sizes of 0.39 MB, 1.23 MB and 12.23 MB.
	cases := []struct {
		cfg  Config
		want float64 // MB
		tol  float64
	}{
		{RMC1(), 0.39, 0.02},
		{RMC2(), 1.23, 0.05},
		{RMC3(), 12.23, 0.15},
	}
	for _, tc := range cases {
		gotMB := float64(tc.cfg.MLPWeightBytes()) / (1 << 20)
		if math.Abs(gotMB-tc.want) > tc.tol {
			t.Errorf("%s MLP size = %.3f MB, want %.2f MB (Table III)", tc.cfg.Name, gotMB, tc.want)
		}
	}
}

func TestTableIIIArchitectures(t *testing.T) {
	r1 := RMC1()
	if r1.Tables != 8 || r1.Lookups != 80 || r1.EVDim != 32 {
		t.Fatalf("RMC1 = %+v", r1)
	}
	r2 := RMC2()
	if r2.Tables != 32 || r2.Lookups != 120 || r2.EVDim != 64 {
		t.Fatalf("RMC2 = %+v", r2)
	}
	r3 := RMC3()
	if r3.Tables != 10 || r3.Lookups != 20 || r3.EVDim != 32 {
		t.Fatalf("RMC3 = %+v", r3)
	}
}

func TestThirtyGBBudget(t *testing.T) {
	for _, cfg := range AllConfigs() {
		got := cfg.TableBytes()
		// RowsForBudget floors, so the total is within one row-set of 30 GB.
		if got > TableIIIBudget || got < TableIIIBudget-int64(cfg.Tables*cfg.EVSize()) {
			t.Errorf("%s table bytes = %d, want ~%d", cfg.Name, got, int64(TableIIIBudget))
		}
	}
}

func TestValidateAllBuiltins(t *testing.T) {
	for _, cfg := range AllConfigs() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.EVDim = 0 },
		func(c *Config) { c.Tables = 0 },
		func(c *Config) { c.Lookups = 0 },
		func(c *Config) { c.RowsPerTable = 0 },
		func(c *Config) { c.TopMLP = nil },
		func(c *Config) { c.TopMLP = []int{64, 2} },
		func(c *Config) { c.BottomMLP = []int{0, 32} },
		func(c *Config) { c.TopMLP = []int{-1, 1} },
		func(c *Config) { c.DenseDim = -1 },
	}
	for i, mutate := range bad {
		c := smallConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestConfigByName(t *testing.T) {
	c, err := ConfigByName("RMC2")
	if err != nil || c.Name != "RMC2" {
		t.Fatalf("ConfigByName(RMC2) = %v, %v", c.Name, err)
	}
	if _, err := ConfigByName("nope"); err == nil {
		t.Fatal("unknown name should fail")
	}
}

func TestTopInputDim(t *testing.T) {
	// RMC1: bottom out 32 + 8 tables * 32 = 288.
	if got := RMC1().TopInputDim(); got != 288 {
		t.Fatalf("RMC1 TopInputDim = %d, want 288", got)
	}
	// WnD (no bottom MLP): 13 dense + 26*64 = 1677.
	if got := WnD().TopInputDim(); got != 13+26*64 {
		t.Fatalf("WnD TopInputDim = %d", got)
	}
}

func TestBuildShapes(t *testing.T) {
	m := MustBuild(smallConfig())
	if len(m.Bottom) != 2 || len(m.Top) != 3 {
		t.Fatalf("layer counts = %d/%d", len(m.Bottom), len(m.Top))
	}
	if m.Bottom[0].In() != 128 || m.Bottom[0].Out() != 64 {
		t.Fatalf("bottom L0 = %dx%d", m.Bottom[0].Out(), m.Bottom[0].In())
	}
	if m.Top[0].In() != 288 || m.Top[0].Out() != 256 {
		t.Fatalf("top L0 = %dx%d", m.Top[0].Out(), m.Top[0].In())
	}
	if !m.Top[2].Final || m.Top[1].Final || m.Bottom[1].Final {
		t.Fatal("Final flags wrong")
	}
}

// Validate checks that every weight matrix's storage covers its shape, so
// a model with a short or mis-strided W is refused up front instead of
// panicking (or reading past the slice's length) on its first inference.
func TestModelValidateWeightStorage(t *testing.T) {
	m := MustBuild(smallConfig())
	if err := m.Validate(); err != nil {
		t.Fatalf("built model: %v", err)
	}
	w := m.Top[1].W
	// A view over a wider matrix is fine as long as its last row fits.
	wide := tensor.NewMatrix(w.Rows, w.Cols+3)
	view, _ := wide.SplitCols(w.Cols)
	exact := *view
	exact.Data = view.Data[:(w.Rows-1)*view.Stride+w.Cols]
	short := exact
	short.Data = exact.Data[:len(exact.Data)-1]
	narrow := *w
	narrow.Stride = w.Cols - 1
	for _, tc := range []struct {
		name string
		w    tensor.Matrix
		ok   bool
	}{
		{"strided view", *view, true},
		{"view ending at its last element", exact, true},
		{"view one element short", short, false},
		{"fresh 10-element slice", tensor.Matrix{Rows: w.Rows, Cols: w.Cols, Stride: w.Stride, Data: make([]float32, 10)}, false},
		{"short slice with spare capacity", tensor.Matrix{Rows: w.Rows, Cols: w.Cols, Stride: w.Stride, Data: w.Data[:len(w.Data)-1]}, false},
		{"stride below cols", narrow, false},
	} {
		bad := *m
		bad.Top = append([]Layer(nil), m.Top...)
		tw := tc.w
		bad.Top[1].W = &tw
		if err := bad.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := MustBuild(smallConfig())
	b := MustBuild(smallConfig())
	if tensor.MaxAbsDiff(a.Top[0].W.Data, b.Top[0].W.Data) != 0 {
		t.Fatal("weights not deterministic")
	}
}

// Build carves every layer out of one slice, and BuildResident out of one
// mapping; both must fill exactly the weights a per-layer fill gives: each
// layer's own matrix and bias filled from the seeds Build has always used.
func TestBuildMatchesPerLayerFill(t *testing.T) {
	ref := func(dims []int, in int, seedBase uint64) []Layer {
		var layers []Layer
		for i, out := range dims {
			w := tensor.NewMatrix(out, in)
			tensor.FillMatrix(w, seedBase+uint64(i)*2, float32(1/math.Sqrt(float64(in))))
			b := make(tensor.Vector, out)
			tensor.FillVector(b, seedBase+uint64(i)*2+1, 0.01)
			layers = append(layers, Layer{W: w, B: b})
			in = out
		}
		return layers
	}
	same := func(t *testing.T, tower string, got, want []Layer) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d layers, want %d", tower, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.W.Rows != w.W.Rows || g.W.Cols != w.W.Cols || g.W.Stride != w.W.Stride ||
				len(g.W.Data) != len(w.W.Data) || cap(g.W.Data) != len(g.W.Data) || cap(g.B) != len(g.B) {
				t.Fatalf("%s layer %d: header %dx%d stride %d len %d cap %d, want %dx%d compact",
					tower, i, g.W.Rows, g.W.Cols, g.W.Stride, len(g.W.Data), cap(g.W.Data), w.W.Rows, w.W.Cols)
			}
			for j := range w.W.Data {
				if math.Float32bits(g.W.Data[j]) != math.Float32bits(w.W.Data[j]) {
					t.Fatalf("%s layer %d: W[%d] = %v, want %v", tower, i, j, g.W.Data[j], w.W.Data[j])
				}
			}
			for j := range w.B {
				if math.Float32bits(g.B[j]) != math.Float32bits(w.B[j]) {
					t.Fatalf("%s layer %d: B[%d] = %v, want %v", tower, i, j, g.B[j], w.B[j])
				}
			}
		}
	}
	for _, cfg := range AllConfigs() {
		bottom := ref(cfg.BottomMLP, cfg.DenseDim, cfg.Seed^0xb07700)
		top := ref(cfg.TopMLP, cfg.TopInputDim(), cfg.Seed^0x70b)
		for _, b := range []struct {
			name  string
			build func(Config) (*Model, error)
		}{{"Build", Build}, {"BuildResident", BuildResident}, {"layout/3", layoutWorkers(3)}, {"layout/7", layoutWorkers(7)}} {
			t.Run(cfg.Name+"/"+b.name, func(t *testing.T) {
				m, err := b.build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				same(t, "bottom", m.Bottom, bottom)
				same(t, "top", m.Top, top)
				if err := m.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// layoutWorkers builds on the heap with the weight fill split across the
// given number of goroutines.
func layoutWorkers(workers int) func(Config) (*Model, error) {
	return func(cfg Config) (*Model, error) {
		return layout(cfg, make([]float32, cfg.MLPWeightBytes()/4), workers), nil
	}
}

func TestBuildResidentRejectsInvalidConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.TopMLP = []int{4}
	if _, err := BuildResident(cfg); err == nil {
		t.Fatal("BuildResident accepted a top MLP that does not end in one output")
	}
}

func TestInferOutputIsProbability(t *testing.T) {
	m := MustBuild(smallConfig())
	dense := make(tensor.Vector, m.Cfg.DenseDim)
	tensor.FillVector(dense, 9, 1)
	sparse := make([][]int64, m.Cfg.Tables)
	for t2 := range sparse {
		for i := 0; i < m.Cfg.Lookups; i++ {
			sparse[t2] = append(sparse[t2], int64((t2*31+i*7)%int(m.Cfg.RowsPerTable)))
		}
	}
	out := m.Infer(dense, sparse)
	if out <= 0 || out >= 1 || out != out {
		t.Fatalf("CTR output = %v, want in (0,1)", out)
	}
	// Deterministic.
	if out2 := m.Infer(dense, sparse); out2 != out {
		t.Fatal("inference not deterministic")
	}
}

func TestInferPanicsOnWrongTables(t *testing.T) {
	m := MustBuild(smallConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Infer(make(tensor.Vector, m.Cfg.DenseDim), make([][]int64, 1))
}

func TestEVBytesRoundTrip(t *testing.T) {
	m := MustBuild(smallConfig())
	v := m.EmbeddingVector(3, 77)
	got := DecodeEV(m.EVBytes(3, 77))
	if tensor.MaxAbsDiff(v, got) != 0 {
		t.Fatal("EVBytes/DecodeEV round trip failed")
	}
}

func TestEVBytesIntoPartial(t *testing.T) {
	m := MustBuild(smallConfig())
	full := m.EVBytes(1, 5)
	part := make([]byte, 8)
	m.EVBytesInto(1, 5, 16, part) // elements 4 and 5
	for i := range part {
		if part[i] != full[16+i] {
			t.Fatal("partial encoding mismatch")
		}
	}
}

// TestEVBytesIntoMatchesEmbeddingValue: EVBytesInto, which folds the
// vector's hash prefix once, writes bytes [from, from+n) of the
// little-endian image of EmbeddingValue's elements, for every offset and
// length in the vector (a range may start or end inside an element), on a
// plain config and on a row-remapped array member.
func TestEVBytesIntoMatchesEmbeddingValue(t *testing.T) {
	member := smallConfig()
	member.RowBase, member.RowStride = 3, 5
	for _, cfg := range []Config{smallConfig(), member} {
		m := &Model{Cfg: cfg}
		evSize := cfg.EVSize()
		for _, key := range []struct {
			table int
			row   int64
		}{{0, 0}, {2, 77}, {cfg.Tables - 1, cfg.RowsPerTable - 1}} {
			image := make([]byte, evSize)
			for e := 0; e < cfg.EVDim; e++ {
				binary.LittleEndian.PutUint32(image[4*e:], math.Float32bits(m.EmbeddingValue(key.table, key.row, e)))
			}
			for from := 0; from <= evSize; from++ {
				for n := 0; from+n <= evSize; n++ {
					buf := make([]byte, n)
					m.EVBytesInto(key.table, key.row, from, buf)
					if want := image[from : from+n]; !bytes.Equal(buf, want) {
						t.Fatalf("row base %d: table %d row %d bytes [%d,%d): % x, want % x",
							cfg.RowBase, key.table, key.row, from, from+n, buf, want)
					}
				}
			}
		}
	}
}

func TestPoolReferenceMatchesManualSum(t *testing.T) {
	m := MustBuild(smallConfig())
	rows := []int64{1, 5, 9}
	want := make(tensor.Vector, m.Cfg.EVDim)
	for _, r := range rows {
		tensor.AccumulateInto(want, m.EmbeddingVector(0, r))
	}
	got := m.PoolReference(0, rows)
	if tensor.MaxAbsDiff(got, want) > 1e-6 {
		t.Fatal("pooling mismatch")
	}
}

// Pooling is permutation-invariant up to FP32 rounding; with the same
// order it must be exact. Property-check exactness of the generator.
func TestPoolPermutationProperty(t *testing.T) {
	m := MustBuild(smallConfig())
	prop := func(rows []uint16) bool {
		if len(rows) == 0 {
			return true
		}
		a := make([]int64, len(rows))
		for i, r := range rows {
			a[i] = int64(r) % m.Cfg.RowsPerTable
		}
		// Reverse order.
		b := make([]int64, len(a))
		for i := range a {
			b[i] = a[len(a)-1-i]
		}
		pa := m.PoolReference(2, a)
		pb := m.PoolReference(2, b)
		return tensor.MaxAbsDiff(pa, pb) <= 1e-4
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBottomForwardNoTower(t *testing.T) {
	m := MustBuild(NCFWithRows(1024))
	out := m.BottomForward(nil)
	if len(out) != 0 {
		t.Fatalf("NCF bottom output = %v, want empty", out)
	}
	w := MustBuild(WnDWithRows(1024))
	dense := make(tensor.Vector, 13)
	got := w.BottomForward(dense)
	if len(got) != 13 {
		t.Fatalf("WnD bottom passthrough dim = %d, want 13", len(got))
	}
}

func TestHostTimingPositive(t *testing.T) {
	m := MustBuild(smallConfig())
	if m.BottomTime() <= 0 || m.TopTime() <= 0 || m.ConcatTime() <= 0 ||
		m.SLSComputeTime() <= 0 || m.HostOverheadTime() <= 0 {
		t.Fatal("all host-side stage times must be positive")
	}
}

func TestRMC3IsMLPDominated(t *testing.T) {
	// The premise of the paper's classification: for RMC3 the MLP time
	// dominates the in-memory SLS time; for RMC2 the reverse.
	r3 := MustBuild(rowsCapped(RMC3(), 4096))
	mlp3 := r3.BottomTime() + r3.TopTime()
	if mlp3 <= r3.SLSComputeTime() {
		t.Fatalf("RMC3 should be MLP-dominated: mlp=%v sls=%v", mlp3, r3.SLSComputeTime())
	}
	r2 := MustBuild(rowsCapped(RMC2(), 4096))
	mlp2 := r2.BottomTime() + r2.TopTime()
	if r2.SLSComputeTime() <= mlp2/4 {
		t.Fatalf("RMC2 embedding work should be substantial: mlp=%v sls=%v", mlp2, r2.SLSComputeTime())
	}
}

func TestLayerFLOPs(t *testing.T) {
	m := MustBuild(smallConfig())
	l := m.Bottom[0]
	if l.FLOPs() != 2*128*64 {
		t.Fatalf("FLOPs = %d", l.FLOPs())
	}
}

// Helpers for scaled-down builtins.
func rowsCapped(c Config, rows int64) Config {
	c.RowsPerTable = rows
	return c
}

// NCFWithRows returns the NCF config with a test-sized table.
func NCFWithRows(rows int64) Config { return rowsCapped(NCF(), rows) }

// WnDWithRows returns the WnD config with a test-sized table.
func WnDWithRows(rows int64) Config { return rowsCapped(WnD(), rows) }
