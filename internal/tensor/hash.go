package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Bulk hash-to-float: every embedding vector and every MLP weight is a run
// of HashFloatFrom values over consecutive keys, and each one is
// independent of its neighbours, so the runs are generated by one kernel.
// On amd64 with AVX-512F/DQ it is an assembly loop over eight 64-bit lanes
// (hash_amd64.s); everywhere else, and as the oracle that loop is tested
// against, it is the scalar loop in hashFloatsGeneric.

// hashKernel, when non-nil, is the vector kernel: it writes the n float32
// values scale * HashFloatFrom(prefix, from+i) to dst, in native byte
// order. It is picked once, at package init, from what the CPU supports.
var hashKernel func(dst unsafe.Pointer, n int, prefix, from uint64, scale float32)

// HashFloats sets dst[i] = scale * HashFloatFrom(prefix, from+uint64(i))
// for every i, bit for bit (from+i wraps at 2^64).
func HashFloats(dst []float32, prefix, from uint64, scale float32) {
	if hashKernel != nil && len(dst) > 0 {
		hashKernel(unsafe.Pointer(&dst[0]), len(dst), prefix, from, scale)
		return
	}
	hashFloatsGeneric(dst, prefix, from, scale)
}

// HashFloatBytes writes the little-endian FP32 image of HashFloats(prefix,
// from, scale) over len(dst)/4 values into dst, whose length must be a
// multiple of 4. (The kernel writes native order, which on amd64 is
// little-endian.)
func HashFloatBytes(dst []byte, prefix, from uint64, scale float32) {
	if len(dst)%4 != 0 {
		panic(fmt.Sprintf("tensor: HashFloatBytes into %d bytes, not a whole number of floats", len(dst)))
	}
	if hashKernel != nil && len(dst) > 0 {
		hashKernel(unsafe.Pointer(&dst[0]), len(dst)/4, prefix, from, scale)
		return
	}
	for i := 0; i < len(dst); i += 4 {
		binary.LittleEndian.PutUint32(dst[i:], math.Float32bits(scale*HashFloatFrom(prefix, from+uint64(i/4))))
	}
}

// hashFloatsGeneric is HashFloats one value at a time.
func hashFloatsGeneric(dst []float32, prefix, from uint64, scale float32) {
	for i := range dst {
		dst[i] = scale * HashFloatFrom(prefix, from+uint64(i))
	}
}
