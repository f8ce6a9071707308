package tensor

// Deterministic pseudo-random value generation. Embedding tables in the
// simulated SSD are far too large to materialise (the paper uses 30 GB per
// model), so vector contents are derived on demand from (seed, table, row,
// column) through a SplitMix64-style mix. The same generator seeds MLP
// weights, making every experiment bit-reproducible without storing data.

// Mix64 is a SplitMix64 finalizer: a bijective 64-bit mix with good
// avalanche behaviour.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashFloat returns a deterministic float32 in [-1, 1) derived from the
// given keys.
func HashFloat(keys ...uint64) float32 { return hashToFloat(HashPrefix(keys...)) }

// HashPrefix folds leading keys into a state that HashFloatFrom continues:
// HashFloatFrom(HashPrefix(a...), b) == HashFloat(a..., b) bit for bit. A
// caller generating many values that share their leading keys (every
// element of one embedding vector, every column of one weight row) folds
// the shared part once.
func HashPrefix(keys ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, k := range keys {
		h = Mix64(h ^ k)
	}
	return h
}

// HashFloatFrom returns HashFloat of the keys folded into prefix followed
// by k.
func HashFloatFrom(prefix, k uint64) float32 { return hashToFloat(Mix64(prefix ^ k)) }

// hashToFloat maps a hash state to [-1, 1): the top 24 bits, centred on
// zero, scaled by 2^-23. Both steps are exact in float32 (a 24-bit integer
// and a power-of-two scale), so this is the same value as (2*k/2^24 - 1)
// computed in float64 and rounded, without leaving float32.
func hashToFloat(h uint64) float32 {
	return float32(int32(h>>40)-1<<23) * (1.0 / (1 << 23))
}

// RNG is a small deterministic PRNG (SplitMix64) for sequential generation.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// FillMatrix initialises m with small deterministic weights derived from
// seed, in [-scale, scale).
func FillMatrix(m *Matrix, seed uint64, scale float32) { FillMatrixRows(m, seed, scale, 0, m.Rows) }

// FillMatrixRows fills rows [r0, r1) of m as FillMatrix does. Each weight
// is a pure function of (seed, row, column), so filling disjoint row
// ranges concurrently gives the same matrix as one FillMatrix.
func FillMatrixRows(m *Matrix, seed uint64, scale float32, r0, r1 int) {
	for r := r0; r < r1; r++ {
		HashFloats(m.Data[r*m.Stride:][:m.Cols], HashPrefix(seed, uint64(r)), 0, scale)
	}
}

// FillVector initialises v with deterministic values derived from seed, in
// [-scale, scale): v[i] = scale * HashFloat(seed, i).
func FillVector(v Vector, seed uint64, scale float32) { HashFloats(v, HashPrefix(seed), 0, scale) }
