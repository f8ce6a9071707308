package tensor

import (
	"encoding/binary"
	"math"
	"testing"
	"unsafe"
)

// hashScales are the scales the kernel tests multiply by: both zeros, one,
// a negative, the smallest subnormal and a larger subnormal (products round
// to subnormals or zero) and 3e38 (products near the float32 maximum).
var hashScales = []float32{0, float32(math.Copysign(0, -1)), 1, -0.75,
	math.SmallestNonzeroFloat32, 1e-40, 3e38}

// hashFroms returns the first keys the kernel tests start from: zero, a
// random key, and keys close enough to 2^64 that from+i wraps inside a run
// of n values.
func hashFroms(r *RNG, n int) []uint64 {
	return []uint64{0, r.Uint64(), math.MaxUint64, math.MaxUint64 - uint64(n/2), math.MaxUint64 - 15}
}

// guard is the bit pattern written around a kernel's output to catch a
// store past its end.
const guard = 0x7fc0dead

// checkHashFloats compares, bit for bit, every path that hashes n values
// from (prefix, from) at scale: HashFloats and HashFloatBytes against the
// generic loop, and the vector kernel, when the CPU has one, against the
// same loop with guard words after the run that must survive.
func checkHashFloats(t *testing.T, prefix, from uint64, n int, scale float32) {
	t.Helper()
	want := make([]float32, n)
	hashFloatsGeneric(want, prefix, from, scale)
	for i, w := range want {
		if ref := scale * HashFloatFrom(prefix, from+uint64(i)); math.Float32bits(w) != math.Float32bits(ref) {
			t.Fatalf("prefix %#x from %#x scale %g: generic value %d is %#08x, want %#08x",
				prefix, from, scale, i, math.Float32bits(w), math.Float32bits(ref))
		}
	}
	got := make([]float32, n)
	HashFloats(got, prefix, from, scale)
	diffFloats(t, "HashFloats", prefix, from, scale, got, want)
	img := make([]byte, 4*n)
	HashFloatBytes(img, prefix, from, scale)
	for i := range want {
		if b, w := binary.LittleEndian.Uint32(img[4*i:]), math.Float32bits(want[i]); b != w {
			t.Fatalf("prefix %#x from %#x scale %g n %d: HashFloatBytes value %d is %#08x, want %#08x",
				prefix, from, scale, n, i, b, w)
		}
	}
	if hashKernel == nil {
		return
	}
	const pad = 17
	buf := make([]float32, n+pad)
	for i := range buf {
		buf[i] = math.Float32frombits(guard)
	}
	if n > 0 {
		hashKernel(unsafe.Pointer(&buf[0]), n, prefix, from, scale)
	}
	diffFloats(t, "kernel", prefix, from, scale, buf[:n], want)
	for i, v := range buf[n:] {
		if math.Float32bits(v) != guard {
			t.Fatalf("prefix %#x from %#x n %d: kernel wrote %#08x past the end, at %d", prefix, from, n, math.Float32bits(v), n+i)
		}
	}
}

func diffFloats(t *testing.T, path string, prefix, from uint64, scale float32, got, want []float32) {
	t.Helper()
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s: prefix %#x from %#x scale %g n %d: value %d is %#08x, want %#08x",
				path, prefix, from, scale, len(want), i, g, w)
		}
	}
}

// TestHashFloatsGeneric runs HashFloats and HashFloatBytes with the
// vector kernel switched off, on every CPU, and checks them against the
// generic loop (and that loop against HashFloatFrom) over random prefixes,
// wrapping keys, lengths 0-67 and every test scale.
func TestHashFloatsGeneric(t *testing.T) {
	defer func(k func(unsafe.Pointer, int, uint64, uint64, float32)) { hashKernel = k }(hashKernel)
	hashKernel = nil
	r := NewRNG(31)
	for n := 0; n < 68; n++ {
		prefix := r.Uint64()
		for _, from := range hashFroms(r, n) {
			for _, s := range hashScales {
				checkHashFloats(t, prefix, from, n, s)
			}
		}
	}
}

// TestHashFloatsKernelMatchesGeneric is the vector kernel's table test: the
// same sweep as TestHashFloatsGeneric, where checkHashFloats also runs the
// kernel directly, plus row fills of SplitCols views, which must write
// exactly their own columns.
func TestHashFloatsKernelMatchesGeneric(t *testing.T) {
	if hashKernel == nil {
		t.Skip("no vector hash kernel: the CPU lacks AVX-512F/DQ or the OS does not save ZMM state; TestHashFloatsGeneric covers the generic path")
	}
	r := NewRNG(47)
	for n := 0; n < 68; n++ {
		for p := 0; p < 4; p++ {
			prefix := r.Uint64()
			for _, from := range hashFroms(r, n) {
				for _, s := range hashScales {
					checkHashFloats(t, prefix, from, n, s)
				}
			}
		}
	}
	for cols := 2; cols < 40; cols++ {
		parent := NewMatrix(5, cols)
		left, right := parent.SplitCols(cols / 2)
		for _, view := range []*Matrix{left, right} {
			for i := range parent.Data {
				parent.Data[i] = math.Float32frombits(guard)
			}
			FillMatrix(view, 0xfeed, 0.25)
			other := left
			if view == left {
				other = right
			}
			for row := 0; row < view.Rows; row++ {
				want := make([]float32, view.Cols)
				hashFloatsGeneric(want, HashPrefix(0xfeed, uint64(row)), 0, 0.25)
				diffFloats(t, "SplitCols view", uint64(row), 0, 0.25, view.Row(row), want)
				for c, v := range other.Row(row) {
					if math.Float32bits(v) != guard {
						t.Fatalf("%d columns: filling one view wrote %#08x into the other at (%d, %d)", cols, math.Float32bits(v), row, c)
					}
				}
			}
		}
	}
}

// TestFillVectorMatchesHashFloat: FillVector, which hashes from the seed's
// folded prefix, is HashFloat(seed, i) element by element.
func TestFillVectorMatchesHashFloat(t *testing.T) {
	for n := 0; n < 70; n++ {
		v := make(Vector, n)
		FillVector(v, uint64(n)*0x9e37, 0.5)
		for i := range v {
			if want := 0.5 * HashFloat(uint64(n)*0x9e37, uint64(i)); math.Float32bits(v[i]) != math.Float32bits(want) {
				t.Fatalf("n %d: FillVector[%d] = %v, want %v", n, i, v[i], want)
			}
		}
	}
}

func TestHashFloatBytesRejectsPartialFloat(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("HashFloatBytes into 6 bytes did not panic")
		}
	}()
	HashFloatBytes(make([]byte, 6), 1, 0, 1)
}

// FuzzHashFloats runs checkHashFloats on fuzzed inputs: any prefix and
// first key (wrapping included), lengths 0-67 and any scale bits. Its seed
// corpus covers the table test's corners.
func FuzzHashFloats(f *testing.F) {
	for _, s := range hashScales {
		f.Add(uint64(0x243f6a8885a308d3), uint64(0), uint8(32), math.Float32bits(s))
	}
	f.Add(uint64(1), uint64(math.MaxUint64), uint8(67), math.Float32bits(1))
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64-7), uint8(17), math.Float32bits(-2))
	f.Add(uint64(0xdeadbeef), uint64(1<<40), uint8(0), math.Float32bits(1))
	f.Add(uint64(7), uint64(3), uint8(1), math.Float32bits(0.001))
	f.Fuzz(func(t *testing.T, prefix, from uint64, n uint8, scaleBits uint32) {
		checkHashFloats(t, prefix, from, int(n)%68, math.Float32frombits(scaleBits))
	})
}
