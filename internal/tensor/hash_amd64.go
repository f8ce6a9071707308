package tensor

import "unsafe"

func init() {
	if hasAVX512FDQ() {
		hashKernel = hashFloatsAVX512
	}
}

// hasAVX512FDQ reports whether the CPU has AVX-512F and AVX-512DQ
// (VPMULLQ) and the OS saves the opmask and full ZMM register state.
func hasAVX512FDQ() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	// XCR0: SSE and AVX state (bits 1, 2), opmask, ZMM0-15 upper halves
	// and ZMM16-31 (bits 5, 6, 7).
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xgetbv0()&zmmState != zmmState {
		return false
	}
	const avx512f, avx512dq = 1 << 16, 1 << 17
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0 && ebx&avx512dq != 0
}

// cpuid executes CPUID for the leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of extended control register XCR0.
func xgetbv0() (eax uint32)

// hashFloatsAVX512 is the hash kernel for AVX-512F/DQ: sixteen values per
// iteration, a masked store for the last partial block.
//
//go:noescape
func hashFloatsAVX512(dst unsafe.Pointer, n int, prefix, from uint64, scale float32)
