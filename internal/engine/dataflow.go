package engine

import (
	"fmt"

	"rmssd/internal/tensor"
)

// Kernel dataflow simulation. The timing model prices an FC layer at
// ceil(R/kr)*ceil(C/kc)*II cycles; this file additionally *executes* the
// kernel's block-streaming dataflow — kr x kc blocks walked in a scan
// order, partial sums held in per-column accumulators — so tests can prove
// that the hardware schedule (including Fig. 9's alternating scan
// directions) computes exactly the same GEMV as the reference math.

// ScanOrder selects how the kernel walks the weight matrix blocks.
type ScanOrder int

const (
	// ScanColumnMajor streams kc columns first, then advances kr rows
	// (Fig. 9(a)'s pattern).
	ScanColumnMajor ScanOrder = iota
	// ScanRowMajor streams kr rows first, then advances kc columns
	// (the alternated direction of Fig. 9(b)).
	ScanRowMajor
)

// String implements fmt.Stringer.
func (s ScanOrder) String() string {
	if s == ScanColumnMajor {
		return "column-major"
	}
	return "row-major"
}

// KernelTrace records the dataflow execution for inspection.
type KernelTrace struct {
	Blocks int // kernel blocks streamed
	MACs   int // multiply-accumulates performed
}

// KernelGEMV computes y = W*x through the blocked dataflow with kernel
// (kr, kc) in the given scan order, returning the result and the execution
// trace. W is C x R (outputs x inputs), as in FCLayer.
func KernelGEMV(w *tensor.Matrix, x tensor.Vector, kr, kc int, order ScanOrder) (tensor.Vector, KernelTrace) {
	if kr < 1 || kc < 1 {
		panic(fmt.Sprintf("engine: kernel %dx%d", kr, kc))
	}
	if len(x) != w.Cols {
		panic(fmt.Sprintf("engine: input length %d for %d-wide layer", len(x), w.Cols))
	}
	R := w.Cols // inputs
	C := w.Rows // outputs
	acc := make(tensor.Vector, C)
	var tr KernelTrace

	// One kernel block: rows [r0, r0+kr) of the input dimension against
	// columns [c0, c0+kc) of the output dimension. The adder tree sums
	// the kr products per output column (Section IV-C1).
	block := func(r0, c0 int) {
		tr.Blocks++
		for c := c0; c < c0+kc && c < C; c++ {
			var sum float32
			for r := r0; r < r0+kr && r < R; r++ {
				sum += float32(w.At(c, r) * x[r])
				tr.MACs++
			}
			acc[c] += sum
		}
	}

	switch order {
	case ScanColumnMajor:
		// All output columns for one input stripe, then next stripe.
		for r0 := 0; r0 < R; r0 += kr {
			for c0 := 0; c0 < C; c0 += kc {
				block(r0, c0)
			}
		}
	case ScanRowMajor:
		// All input stripes for one output group, then next group: the
		// group's outputs complete early, so the next layer can start
		// consuming them (inter-layer composition).
		for c0 := 0; c0 < C; c0 += kc {
			for r0 := 0; r0 < R; r0 += kr {
				block(r0, c0)
			}
		}
	default:
		panic(fmt.Sprintf("engine: unknown scan order %d", order))
	}
	return acc, tr
}

// FirstOutputReadyBlocks returns after how many streamed blocks the first
// kc outputs are complete under the given scan order — the quantity that
// determines whether the next layer stalls (Fig. 9(a)) or pipelines
// (Fig. 9(b)).
func FirstOutputReadyBlocks(R, C, kr, kc int, order ScanOrder) int {
	blocksR := (R + kr - 1) / kr
	blocksC := (C + kc - 1) / kc
	switch order {
	case ScanColumnMajor:
		// The first column group finishes only on the final input
		// stripe: after the whole matrix has streamed, minus the tail
		// of the last stripe.
		return (blocksR-1)*blocksC + 1
	case ScanRowMajor:
		// The first column group finishes after its blocksR stripes.
		return blocksR
	default:
		panic("engine: unknown scan order")
	}
}

// ForwardDataflow runs the layer functionally through the blocked dataflow
// (bias and activation applied after accumulation, as the hardware's
// post-accumulation stage does).
func (l *FCLayer) ForwardDataflow(x tensor.Vector, order ScanOrder) tensor.Vector {
	y, _ := KernelGEMV(l.W, x, l.Kr, l.Kc, order)
	if l.B != nil {
		y = tensor.Add(y, l.B)
	}
	if l.NoActivation {
		return y
	}
	if l.Final {
		return tensor.Sigmoid(y)
	}
	return tensor.ReLU(y)
}
