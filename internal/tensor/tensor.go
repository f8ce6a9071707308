// Package tensor provides the minimal float32 linear algebra used by both
// the host-side reference model and the simulated FPGA engines: dense
// vectors, row-major matrices, GEMV/GEMM, elementwise activations and
// concatenation.
//
// Precision note: the paper keeps MLP weights and embedding vectors in FP32
// without quantization because recommendation models are accuracy-sensitive
// (Section IV-C1). All arithmetic here is float32 with float64 accumulation
// disabled on purpose, to mirror that.
package tensor

import (
	"fmt"
	"math"
)

// Vector is a dense float32 vector.
type Vector []float32

// Matrix is a dense row-major float32 matrix: element (r, c) lives at
// Data[r*Stride+c]. For an FC layer with R inputs and C outputs the weight
// matrix has Rows=C and Cols=R so that y = W*x.
type Matrix struct {
	Rows, Cols int
	// Stride is the distance in Data between the starts of consecutive
	// rows: Cols for a matrix from NewMatrix or Clone, the parent's row
	// length for a SplitCols view.
	Stride int
	Data   []float32
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: cols, Data: make([]float32, rows*cols)}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Stride+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Stride+c] = v }

// Row returns row r as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) Vector { return Vector(m.Data[r*m.Stride : r*m.Stride+m.Cols]) }

// SizeBytes returns the logical footprint of the matrix in bytes (FP32,
// 4*Rows*Cols), whether it owns its storage or is a view.
func (m *Matrix) SizeBytes() int { return 4 * m.Rows * m.Cols }

// Clone returns a compact deep copy of the matrix (Stride == Cols).
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		copy(out.Row(r), m.Row(r))
	}
	return out
}

// MatVec computes y = m * x where x has length m.Cols. The result has
// length m.Rows.
func (m *Matrix) MatVec(x Vector) Vector {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch: %dx%d by %d", m.Rows, m.Cols, len(x)))
	}
	y := make(Vector, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Stride : r*m.Stride+m.Cols]
		var acc float32
		for c, w := range row {
			acc += w * x[c]
		}
		y[r] = acc
	}
	return y
}

// MatVecBias computes y = m*x + b.
func (m *Matrix) MatVecBias(x, b Vector) Vector {
	if len(b) != m.Rows {
		panic(fmt.Sprintf("tensor: bias length %d, want %d", len(b), m.Rows))
	}
	y := m.MatVec(x)
	for i := range y {
		y[i] += b[i]
	}
	return y
}

// SplitCols splits the matrix column-wise into a left part with nLeft
// columns and a right part with the remainder. This implements the paper's
// intra-layer decomposition (Section IV-C2): the first top-MLP layer's
// weights RC decompose into Rb*C + Re*C halves applied to the bottom-MLP
// output and the embedding output independently.
//
// The halves are read-only views that alias m's storage: nothing is
// copied, and a write through either would show in m.
func (m *Matrix) SplitCols(nLeft int) (left, right *Matrix) {
	if nLeft <= 0 || nLeft >= m.Cols {
		panic(fmt.Sprintf("tensor: SplitCols(%d) on %d columns", nLeft, m.Cols))
	}
	left = &Matrix{Rows: m.Rows, Cols: nLeft, Stride: m.Stride, Data: m.Data}
	right = &Matrix{Rows: m.Rows, Cols: m.Cols - nLeft, Stride: m.Stride, Data: m.Data[nLeft:]}
	return left, right
}

// Add returns a+b elementwise.
func Add(a, b Vector) Vector {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Add length mismatch %d vs %d", len(a), len(b)))
	}
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// AccumulateInto adds src into dst elementwise (dst += src).
func AccumulateInto(dst, src Vector) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Accumulate length mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range src {
		dst[i] += src[i]
	}
}

// Scale multiplies every element of v by s in place and returns v.
func Scale(v Vector, s float32) Vector {
	for i := range v {
		v[i] *= s
	}
	return v
}

// ReLU applies max(0, x) elementwise in place and returns v.
func ReLU(v Vector) Vector {
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		}
	}
	return v
}

// Sigmoid applies the logistic function elementwise in place and returns v.
func Sigmoid(v Vector) Vector {
	for i, x := range v {
		v[i] = 1 / (1 + exp32(-x))
	}
	return v
}

// Concat concatenates vectors in order into one new vector.
func Concat(vs ...Vector) Vector {
	var n int
	for _, v := range vs {
		n += len(v)
	}
	out := make(Vector, 0, n)
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}

// Dot returns the inner product of a and b.
func Dot(a, b Vector) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var acc float32
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b; used by equivalence tests between implementations.
func MaxAbsDiff(a, b Vector) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: MaxAbsDiff length mismatch %d vs %d", len(a), len(b)))
	}
	var m float32
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// exp32 is exp for float32 operands, computed in float64 and rounded once.
func exp32(x float32) float32 { return float32(math.Exp(float64(x))) }
