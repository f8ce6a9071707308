package embedding

import (
	"fmt"
	"math"

	"rmssd/internal/tensor"
)

// INT8 embedding quantization. The paper keeps embeddings in FP32 because
// "the recommendation model is much more sensitive to accuracy than other
// DNN models" (Section IV-C1). This file implements the alternative the
// paper declines — symmetric per-vector INT8 quantization — so the
// accuracy/capacity trade-off behind that decision can be measured (see
// the "quant" experiment).

// QuantizedEV is a per-vector symmetrically quantized embedding vector:
// value[i] ~ Scale * Q[i], with Scale chosen so the largest magnitude maps
// to 127.
type QuantizedEV struct {
	Q     []int8
	Scale float32
}

// QuantizedEVSize returns the on-flash byte size of a quantized vector of
// the given dimension: one int8 per element plus the FP32 scale.
func QuantizedEVSize(dim int) int { return dim + 4 }

// Quantize converts an FP32 vector to INT8 with a per-vector scale.
func Quantize(v tensor.Vector) QuantizedEV {
	var maxAbs float32
	for _, x := range v {
		if a := float32(math.Abs(float64(x))); a > maxAbs {
			maxAbs = a
		}
	}
	q := QuantizedEV{Q: make([]int8, len(v))}
	if maxAbs == 0 {
		q.Scale = 1
		return q
	}
	q.Scale = maxAbs / 127
	for i, x := range v {
		r := math.Round(float64(x / q.Scale))
		if r > 127 {
			r = 127
		}
		if r < -127 {
			r = -127
		}
		q.Q[i] = int8(r)
	}
	return q
}

// Dequantize reconstructs the FP32 approximation.
func (q QuantizedEV) Dequantize() tensor.Vector {
	out := make(tensor.Vector, len(q.Q))
	for i, x := range q.Q {
		out[i] = float32(x) * q.Scale
	}
	return out
}

// MaxError returns the worst-case reconstruction error bound: half a
// quantization step.
func (q QuantizedEV) MaxError() float32 { return q.Scale / 2 }

// PoolQuantized computes the SparseLengthsSum over quantized vectors,
// dequantizing each contribution (per-vector scales prevent integer-domain
// accumulation). This is what an INT8 EV Sum unit would compute.
func PoolQuantized(vs []QuantizedEV) tensor.Vector {
	if len(vs) == 0 {
		return nil
	}
	dim := len(vs[0].Q)
	sum := make(tensor.Vector, dim)
	for _, v := range vs {
		if len(v.Q) != dim {
			panic(fmt.Sprintf("embedding: quantized dim mismatch %d vs %d", len(v.Q), dim))
		}
		for i, x := range v.Q {
			sum[i] += float32(float32(x) * v.Scale)
		}
	}
	return sum
}

// QuantizedPoolReference pools a lookup list for one of the model's tables
// entirely through the quantized representation.
func (s *Store) QuantizedPoolReference(table int, rows []int64) tensor.Vector {
	vs := make([]QuantizedEV, len(rows))
	for i, r := range rows {
		vs[i] = Quantize(s.m.EmbeddingVector(table, r))
	}
	return PoolQuantized(vs)
}
