package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatrixAtSetRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v, want 7", m.At(1, 2))
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 7 {
		t.Fatalf("Row(1) = %v, want [0 0 7]", row)
	}
	if m.SizeBytes() != 24 {
		t.Fatalf("SizeBytes = %d, want 24", m.SizeBytes())
	}
}

func TestNewMatrixValidation(t *testing.T) {
	for _, shape := range [][2]int{{0, 3}, {3, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMatrix(%d,%d) did not panic", shape[0], shape[1])
				}
			}()
			NewMatrix(shape[0], shape[1])
		}()
	}
}

func TestMatVec(t *testing.T) {
	m := NewMatrix(2, 3)
	// [1 2 3; 4 5 6] * [1 1 1] = [6 15]
	copy(m.Data, []float32{1, 2, 3, 4, 5, 6})
	y := m.MatVec(Vector{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MatVec = %v, want [6 15]", y)
	}
}

func TestMatVecBias(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float32{1, 0, 0, 1})
	y := m.MatVecBias(Vector{3, 4}, Vector{10, 20})
	if y[0] != 13 || y[1] != 24 {
		t.Fatalf("MatVecBias = %v, want [13 24]", y)
	}
}

func TestMatVecShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2, 3).MatVec(Vector{1, 2})
}

func TestSplitColsRecombines(t *testing.T) {
	m := NewMatrix(3, 5)
	FillMatrix(m, 42, 1)
	x := make(Vector, 5)
	FillVector(x, 7, 1)
	left, right := m.SplitCols(2)
	yFull := m.MatVec(x)
	ySplit := Add(left.MatVec(x[:2]), right.MatVec(x[2:]))
	if d := MaxAbsDiff(yFull, ySplit); d > 1e-6 {
		t.Fatalf("split recombination differs by %v", d)
	}
}

// Property: intra-layer decomposition is exact for any split point. This is
// the mathematical fact behind the paper's Fig. 8 optimization.
func TestSplitColsProperty(t *testing.T) {
	f := func(seed uint64, rows8, cols8, split8 uint8) bool {
		rows := int(rows8%6) + 1
		cols := int(cols8%6) + 2
		split := int(split8)%(cols-1) + 1
		m := NewMatrix(rows, cols)
		FillMatrix(m, seed, 1)
		x := make(Vector, cols)
		FillVector(x, seed+1, 1)
		l, r := m.SplitCols(split)
		got := Add(l.MatVec(x[:split]), r.MatVec(x[split:]))
		want := m.MatVec(x)
		return MaxAbsDiff(got, want) <= 1e-5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

var splitSinkL, splitSinkR *Matrix

// SplitCols copies nothing: its halves alias the parent's storage, and the
// call allocates only their two headers.
func TestSplitColsAliasesParent(t *testing.T) {
	m := NewMatrix(4, 7)
	FillMatrix(m, 9, 1)
	l, r := m.SplitCols(3)
	if &l.Data[0] != &m.Data[0] || &r.Data[0] != &m.Data[3] {
		t.Fatal("SplitCols halves do not alias the parent")
	}
	if l.Stride != m.Cols || r.Stride != m.Cols || l.Cols != 3 || r.Cols != 4 || l.Rows != 4 || r.Rows != 4 {
		t.Fatalf("halves %dx%d/%d and %dx%d/%d, want 4x3/7 and 4x4/7",
			l.Rows, l.Cols, l.Stride, r.Rows, r.Cols, r.Stride)
	}
	if got := testing.AllocsPerRun(100, func() { splitSinkL, splitSinkR = m.SplitCols(3) }); got > 2 {
		t.Fatalf("SplitCols allocates %v times, want at most 2 (the view headers)", got)
	}
}

// Property: At, Row and MatVec on a view, including a split of a split,
// agree bit for bit with the same calls on the view's compact Clone.
func TestMatrixViewMatchesClone(t *testing.T) {
	f := func(seed uint64, rows8, cols8, a8, b8 uint8) bool {
		rows := int(rows8%6) + 1
		cols := int(cols8%8) + 3
		a := int(a8)%(cols-2) + 1 // leaves the right half at least 2 wide
		m := NewMatrix(rows, cols)
		FillMatrix(m, seed, 1)
		l, r := m.SplitCols(a)
		b := int(b8)%(r.Cols-1) + 1
		rl, rr := r.SplitCols(b)
		for _, v := range []*Matrix{l, r, rl, rr} {
			c := v.Clone()
			if c.Stride != c.Cols || len(c.Data) != c.Rows*c.Cols || &c.Data[0] == &v.Data[0] {
				return false
			}
			for i := 0; i < v.Rows; i++ {
				if !sameBits(v.Row(i), c.Row(i)) {
					return false
				}
				for j := 0; j < v.Cols; j++ {
					if math.Float32bits(v.At(i, j)) != math.Float32bits(c.At(i, j)) {
						return false
					}
				}
			}
			x := make(Vector, v.Cols)
			FillVector(x, seed+1, 1)
			if !sameBits(v.MatVec(x), c.MatVec(x)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sameBits(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestSplitColsValidation(t *testing.T) {
	m := NewMatrix(2, 3)
	for _, n := range []int{0, 3, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SplitCols(%d) did not panic", n)
				}
			}()
			m.SplitCols(n)
		}()
	}
}

func TestClone(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 5)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 5 {
		t.Fatal("Clone aliases original")
	}
	v := Vector{1, 2}
	cv := v.Clone()
	cv[0] = 9
	if v[0] != 1 {
		t.Fatal("Vector Clone aliases original")
	}
}

func TestAddAndAccumulate(t *testing.T) {
	a := Vector{1, 2}
	b := Vector{10, 20}
	got := Add(a, b)
	if got[0] != 11 || got[1] != 22 {
		t.Fatalf("Add = %v", got)
	}
	AccumulateInto(a, b)
	if a[0] != 11 || a[1] != 22 {
		t.Fatalf("AccumulateInto = %v", a)
	}
}

func TestScale(t *testing.T) {
	v := Scale(Vector{1, -2}, 3)
	if v[0] != 3 || v[1] != -6 {
		t.Fatalf("Scale = %v", v)
	}
}

func TestReLU(t *testing.T) {
	v := ReLU(Vector{-1, 0, 2.5})
	if v[0] != 0 || v[1] != 0 || v[2] != 2.5 {
		t.Fatalf("ReLU = %v", v)
	}
}

func TestSigmoid(t *testing.T) {
	v := Sigmoid(Vector{0})
	if math.Abs(float64(v[0])-0.5) > 1e-6 {
		t.Fatalf("Sigmoid(0) = %v, want 0.5", v[0])
	}
	v = Sigmoid(Vector{100, -100})
	if v[0] < 0.999 || v[1] > 0.001 {
		t.Fatalf("Sigmoid saturation = %v", v)
	}
}

func TestSigmoidMonotoneProperty(t *testing.T) {
	f := func(a, b float32) bool {
		if a != a || b != b { // NaN inputs
			return true
		}
		if a > 50 || a < -50 || b > 50 || b < -50 {
			return true
		}
		if a > b {
			a, b = b, a
		}
		sa := Sigmoid(Vector{a})[0]
		sb := Sigmoid(Vector{b})[0]
		return sa <= sb && sa >= 0 && sb <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcat(t *testing.T) {
	got := Concat(Vector{1}, Vector{2, 3}, nil, Vector{4})
	want := Vector{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Concat = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Concat = %v, want %v", got, want)
		}
	}
}

func TestMaxAbsDiff(t *testing.T) {
	if d := MaxAbsDiff(Vector{1, 5}, Vector{1.5, 3}); d != 2 {
		t.Fatalf("MaxAbsDiff = %v, want 2", d)
	}
	if d := MaxAbsDiff(Vector{}, Vector{}); d != 0 {
		t.Fatalf("empty MaxAbsDiff = %v, want 0", d)
	}
}

func TestHashFloatDeterministicAndBounded(t *testing.T) {
	a := HashFloat(1, 2, 3)
	b := HashFloat(1, 2, 3)
	if a != b {
		t.Fatal("HashFloat not deterministic")
	}
	if HashFloat(1, 2, 3) == HashFloat(1, 2, 4) {
		t.Fatal("HashFloat collision on adjacent keys (suspicious)")
	}
	for i := uint64(0); i < 1000; i++ {
		v := HashFloat(i)
		if v < -1 || v >= 1 {
			t.Fatalf("HashFloat out of range: %v", v)
		}
	}
}

func TestHashFloatRoughlyCentered(t *testing.T) {
	var sum float64
	const n = 10000
	for i := uint64(0); i < n; i++ {
		sum += float64(HashFloat(99, i))
	}
	if mean := sum / n; math.Abs(mean) > 0.05 {
		t.Fatalf("HashFloat mean = %v, want ~0", mean)
	}
}

// TestHashPrefixMatchesHashFloat: continuing a folded prefix with one more
// key is bitwise HashFloat of all the keys, for prefixes of every length
// up to four over random keys, and FillMatrix (which folds each row's
// prefix once) matches HashFloat element by element.
func TestHashPrefixMatchesHashFloat(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 5000; i++ {
		keys := make([]uint64, 1+i%5)
		for j := range keys {
			keys[j] = r.Uint64()
		}
		if i%3 == 0 {
			keys[len(keys)-1] %= 64 // small element indices, as callers use
		}
		head, last := keys[:len(keys)-1], keys[len(keys)-1]
		got, want := HashFloatFrom(HashPrefix(head...), last), HashFloat(keys...)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("keys %v: HashFloatFrom(HashPrefix) = %v, HashFloat = %v", keys, got, want)
		}
	}
	m := NewMatrix(7, 33)
	FillMatrix(m, 0xfeed, 0.5)
	for row := 0; row < m.Rows; row++ {
		for c := 0; c < m.Cols; c++ {
			if want := 0.5 * HashFloat(0xfeed, uint64(row), uint64(c)); math.Float32bits(m.At(row, c)) != math.Float32bits(want) {
				t.Fatalf("FillMatrix(%d,%d) = %v, want %v", row, c, m.At(row, c), want)
			}
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG not deterministic")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(2)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn covered %d values of 10", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestFillMatrixScale(t *testing.T) {
	m := NewMatrix(10, 10)
	FillMatrix(m, 3, 0.1)
	for _, v := range m.Data {
		if v < -0.1 || v >= 0.1 {
			t.Fatalf("FillMatrix value %v outside [-0.1, 0.1)", v)
		}
	}
	m2 := NewMatrix(10, 10)
	FillMatrix(m2, 3, 0.1)
	if MaxAbsDiff(m.Data, m2.Data) != 0 {
		t.Fatal("FillMatrix not deterministic")
	}
}

func TestMix64Bijective(t *testing.T) {
	// Spot-check injectivity over a small domain.
	seen := map[uint64]uint64{}
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix64 collision: %d and %d -> %d", prev, i, h)
		}
		seen[h] = i
	}
}

// hashToFloat gives, for every one of the 2^24 values its top 24 bits can
// take, the bits of the float64 formula it replaced, and ignores the low 40
// bits (set to ones here).
func TestHashToFloatExhaustive(t *testing.T) {
	ref := func(h uint64) float32 {
		u := float64(h>>40) / float64(1<<24)
		return float32(2*u - 1)
	}
	for k := uint64(0); k < 1<<24; k++ {
		h := k<<40 | (1<<40 - 1)
		if got, want := hashToFloat(h), ref(h); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("hashToFloat(%#x) = %v (%#08x), want %v (%#08x)",
				h, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
}

// matVecRef is the one-accumulator loop MatVec's row blocking must match:
// each output sums its row's products in column order.
func matVecRef(m *Matrix, x Vector) Vector {
	y := make(Vector, m.Rows)
	for r := range y {
		var acc float32
		for c, w := range m.Row(r) {
			acc += w * x[c]
		}
		y[r] = acc
	}
	return y
}

// MatVec is bit-identical to the one-accumulator reference for every row
// count around its four-row block, for random larger shapes, for SplitCols
// views (Stride > Cols) and for inputs holding -0, ±Inf and NaN.
func TestMatVecMatchesReference(t *testing.T) {
	check := func(t *testing.T, m *Matrix, x Vector) {
		t.Helper()
		if got, want := m.MatVec(x), matVecRef(m, x); !sameBits(got, want) {
			t.Fatalf("%dx%d (stride %d): MatVec = %v, reference %v", m.Rows, m.Cols, m.Stride, got, want)
		}
	}
	rng := NewRNG(5)
	var shapes [][2]int
	for rows := 1; rows <= 9; rows++ {
		for _, cols := range []int{1, 2, 3, 7, 16} {
			shapes = append(shapes, [2]int{rows, cols})
		}
	}
	for i := 0; i < 20; i++ {
		shapes = append(shapes, [2]int{1 + rng.Intn(300), 1 + rng.Intn(300)})
	}
	specials := []float32{float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for i, s := range shapes {
		rows, cols := s[0], s[1]
		m := NewMatrix(rows, cols)
		FillMatrix(m, uint64(i), 1)
		x := make(Vector, cols)
		FillVector(x, uint64(i)+100, 1)
		check(t, m, x)
		// Special values, alone in x and in a row of the matrix.
		for _, v := range specials {
			xs := x.Clone()
			xs[rng.Intn(cols)] = v
			check(t, m, xs)
			ms := m.Clone()
			ms.Set(rng.Intn(rows), rng.Intn(cols), v)
			check(t, ms, x)
		}
		if cols < 2 {
			continue
		}
		// Strided views, including the right half whose Data starts
		// mid-row.
		l, r := m.SplitCols(1 + rng.Intn(cols-1))
		check(t, l, x[:l.Cols])
		check(t, r, x[l.Cols:])
	}
}
