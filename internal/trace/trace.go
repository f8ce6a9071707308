// Package trace generates synthetic embedding-lookup traces with the
// locality structure the paper derives from the Kaggle Criteo dataset
// (Section III-B2 and Fig. 4): a small hot set absorbs a disproportionate
// share of lookups, while the remaining accesses are near-unique — "the
// unique accesses account for 84.74%, while the top 10000 frequently
// accessed indices account for 59.2% of total accesses".
//
// Each lookup is drawn from a two-component mixture:
//
//   - with probability HotMass, a Zipf-distributed draw from a hot set of
//     HotSetSize indices, scattered pseudo-randomly over the table's rows;
//   - otherwise, a fresh cold index drawn without replacement from the
//     remaining row space, so cold accesses are (near-)unique, matching the
//     measured single-occurrence dominance.
//
// The locality knob K follows Fig. 14: K = 0, 0.3 (default), 1, 2
// correspond to hit ratios 80 %, 65 %, 45 % and 30 % for a vector cache
// that captures the hot set.
package trace

import (
	"fmt"
	"math"
	"sort"

	"rmssd/internal/params"
	"rmssd/internal/tensor"
)

// Config parameterises a trace generator.
type Config struct {
	// Tables is the number of embedding tables (M in the paper).
	Tables int
	// Rows is the number of embedding vectors per table.
	Rows int64
	// Lookups is the number of pooled lookups per table per inference
	// (N in the paper).
	Lookups int
	// HotMass is the probability that a lookup targets the hot set: the
	// achievable hit ratio of an ideal vector cache holding the hot set.
	// A literal 0 means "unset, use the default" unless HotMassSet is
	// true; use WithHotMass(0) for a zero-locality (all-cold) trace — the
	// K→∞ end of Fig. 14, where every access is unique.
	HotMass float64
	// HotMassSet marks HotMass as explicitly chosen, so HotMass == 0 is a
	// real all-cold configuration rather than a request for the default.
	HotMassSet bool
	// HotSetSize is the number of hot indices per table.
	HotSetSize int64
	// ZipfS is the Zipf skew within the hot set (s > 0; s = 1 is the
	// classic harmonic distribution). Like HotMass, a literal 0 means
	// "unset" unless ZipfSSet is true (an explicit 0 is then rejected by
	// Validate instead of silently replaced).
	ZipfS float64
	// ZipfSSet marks ZipfS as explicitly chosen.
	ZipfSSet bool
	// Seed makes the trace deterministic.
	Seed uint64
}

// WithHotMass returns a copy with HotMass explicitly set to m; unlike
// assigning the field directly, m == 0 survives Default as a genuine
// zero-locality trace.
func (c Config) WithHotMass(m float64) Config {
	c.HotMass, c.HotMassSet = m, true
	return c
}

// WithZipfS returns a copy with ZipfS explicitly set to s.
func (c Config) WithZipfS(s float64) Config {
	c.ZipfS, c.ZipfSSet = s, true
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Tables <= 0:
		return fmt.Errorf("trace: %d tables", c.Tables)
	case c.Rows <= 0:
		return fmt.Errorf("trace: %d rows", c.Rows)
	case c.Lookups <= 0:
		return fmt.Errorf("trace: %d lookups", c.Lookups)
	case c.HotMass < 0 || c.HotMass > 1:
		return fmt.Errorf("trace: hot mass %v outside [0,1]", c.HotMass)
	case c.HotSetSize <= 0 || c.HotSetSize > c.Rows:
		return fmt.Errorf("trace: hot set size %d outside (0,%d]", c.HotSetSize, c.Rows)
	case c.ZipfS <= 0:
		return fmt.Errorf("trace: zipf s %v <= 0", c.ZipfS)
	}
	return nil
}

// WithLocality returns a copy of the config with HotMass set to the Fig. 14
// hit-ratio target for locality parameter k (0, 0.3, 1 or 2).
func (c Config) WithLocality(k float64) (Config, error) {
	hr, ok := params.LocalityHitRatio[k]
	if !ok {
		return c, fmt.Errorf("trace: no locality preset for K=%v (have 0, 0.3, 1, 2)", k)
	}
	c.HotMass, c.HotMassSet = hr, true
	return c, nil
}

// Default fills reasonable defaults for unset fields: Criteo-like skew.
// Fields explicitly set to zero via WithHotMass/WithZipfS (or the *Set
// flags) are left alone, so an all-cold trace is representable.
func (c Config) Default() Config {
	if c.HotMass == 0 && !c.HotMassSet {
		c.HotMass = params.LocalityHitRatio[params.DefaultLocalityK]
	}
	if c.HotSetSize == 0 {
		c.HotSetSize = c.Rows / 64
		if c.HotSetSize < 1 {
			c.HotSetSize = 1
		}
		if c.HotSetSize > 1<<18 {
			c.HotSetSize = 1 << 18
		}
	}
	if c.ZipfS == 0 && !c.ZipfSSet {
		c.ZipfS = 1.05
	}
	return c
}

// Generator produces inference inputs.
type Generator struct {
	cfg      Config
	rng      *tensor.RNG
	coldNext []int64 // per-table without-replacement cursor
	// scramble parameters (bijective affine map over rows)
	mulA uint64
	addB uint64
	// zipfRank's inverse-CDF constants, fixed by HotSetSize and ZipfS:
	// zipfNorm is (n+1)^(1-s) - 1, or log(n+1) when s is 1, and zipfExp
	// is 1/(1-s).
	zipfNorm, zipfExp float64
}

// NewGenerator builds a generator; the config is validated after defaults
// are applied.
func NewGenerator(cfg Config) (*Generator, error) {
	cfg = cfg.Default()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		cfg:      cfg,
		rng:      tensor.NewRNG(cfg.Seed ^ 0x5eed),
		coldNext: make([]int64, cfg.Tables),
		mulA:     2654435761, // Knuth's multiplicative constant, prime
		addB:     tensor.Mix64(cfg.Seed),
	}
	n := float64(cfg.HotSetSize)
	if g.zipfHarmonic() {
		g.zipfNorm = math.Log(n + 1)
	} else {
		p := 1 - cfg.ZipfS
		g.zipfNorm, g.zipfExp = math.Pow(n+1, p)-1, 1/p
	}
	return g, nil
}

// MustNew is NewGenerator, panicking on error.
func MustNew(cfg Config) *Generator {
	g, err := NewGenerator(cfg)
	if err != nil {
		panic(fmt.Sprintf("trace: %v", err))
	}
	return g
}

// Config returns the effective (defaulted) configuration.
func (g *Generator) Config() Config { return g.cfg }

// scatter maps a dense rank to a scattered row index, bijectively when the
// multiplier is coprime with Rows (it is prime, so this holds unless Rows
// is a multiple of it, which no realistic table is).
func (g *Generator) scatter(table int, rank int64) int64 {
	r := uint64(rank) + g.addB + uint64(table)*0x9e3779b9
	return int64((r * g.mulA) % uint64(g.cfg.Rows))
}

// zipfHarmonic reports whether the skew is 1, where the continuous CDF is
// logarithmic rather than a power.
func (g *Generator) zipfHarmonic() bool { return math.Abs(g.cfg.ZipfS-1) < 1e-9 }

// zipfRank draws a rank in [0, HotSetSize) with Zipf skew s via inverse-CDF
// sampling of the continuous approximation.
func (g *Generator) zipfRank() int64 {
	u := g.rng.Float64()
	var x float64
	if g.zipfHarmonic() {
		x = math.Exp(u*g.zipfNorm) - 1
	} else {
		// CDF(x) = ((x+1)^(1-s) - 1) / ((n+1)^(1-s) - 1)
		x = math.Pow(float64(u*g.zipfNorm)+1, g.zipfExp) - 1
	}
	r := int64(x)
	if r < 0 {
		r = 0
	}
	if r >= g.cfg.HotSetSize {
		r = g.cfg.HotSetSize - 1
	}
	return r
}

// nextIndex draws one lookup index for the table.
func (g *Generator) nextIndex(table int) int64 {
	if g.rng.Float64() < g.cfg.HotMass {
		return g.scatter(table, g.zipfRank())
	}
	// Cold: without-replacement walk through the non-hot rank space.
	coldRanks := g.cfg.Rows - g.cfg.HotSetSize
	if coldRanks <= 0 {
		return g.scatter(table, g.zipfRank())
	}
	rank := g.cfg.HotSetSize + g.coldNext[table]%coldRanks
	g.coldNext[table]++
	return g.scatter(table, rank)
}

// HotRow returns the row index of the rank-th hottest entry of the table
// (rank 0 is the most frequently drawn). Systems that statically partition
// a cache from trace history (RecSSD's host cache) warm it with these.
func (g *Generator) HotRow(table int, rank int64) int64 {
	if rank < 0 || rank >= g.cfg.HotSetSize {
		panic(fmt.Sprintf("trace: hot rank %d outside [0,%d)", rank, g.cfg.HotSetSize))
	}
	return g.scatter(table, rank)
}

// HotSetSize returns the per-table hot-set size after defaulting.
func (g *Generator) HotSetSize() int64 { return g.cfg.HotSetSize }

// Inference returns the sparse input of one inference: for each table, the
// list of pooled lookup indices.
func (g *Generator) Inference() [][]int64 {
	out := make([][]int64, g.cfg.Tables)
	for t := range out {
		idx := make([]int64, g.cfg.Lookups)
		for i := range idx {
			idx[i] = g.nextIndex(t)
		}
		out[t] = idx
	}
	return out
}

// Batch returns n inferences.
func (g *Generator) Batch(n int) [][][]int64 {
	out := make([][][]int64, n)
	for i := range out {
		out[i] = g.Inference()
	}
	return out
}

// DenseInput returns a deterministic dense-feature vector of the given
// dimension for inference number i.
func (g *Generator) DenseInput(i int, dim int) tensor.Vector {
	v := make(tensor.Vector, dim)
	tensor.FillVector(v, g.cfg.Seed^uint64(i)*0x9e3779b97f4a7c15, 1)
	return v
}

// IndexCount pairs an index with its occurrence count.
type IndexCount struct {
	Index int64
	Count int64
}

// Stats summarises a trace the way Fig. 4 does.
type Stats struct {
	TotalLookups int64
	TotalIndices int64 // distinct indices touched
	// OccurrenceIndexCounts[k] is the number of distinct indices that
	// occur exactly k+1 times, for k in [0, 9].
	OccurrenceIndexCounts [10]int64
	// SingleShare is the fraction of distinct indices occurring once
	// (the paper measures 84.74 %).
	SingleShare float64
	// Top holds the ten most frequent indices.
	Top []IndexCount
	// TopKShare is the fraction of lookups hitting the topK most
	// frequent indices (the paper: top 10000 -> 59.2 %).
	TopKShare float64
	TopK      int
}

// Analyze computes Fig. 4-style statistics over a flat index stream.
func Analyze(lookups []int64, topK int) Stats {
	counts := make(map[int64]int64, len(lookups)/2)
	for _, idx := range lookups {
		counts[idx]++
	}
	s := Stats{TotalLookups: int64(len(lookups)), TotalIndices: int64(len(counts)), TopK: topK}
	all := make([]IndexCount, 0, len(counts))
	for idx, c := range counts {
		all = append(all, IndexCount{idx, c})
		if c <= 10 {
			s.OccurrenceIndexCounts[c-1]++
		}
	}
	if s.TotalIndices > 0 {
		s.SingleShare = float64(s.OccurrenceIndexCounts[0]) / float64(s.TotalIndices)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Index < all[j].Index
	})
	n := 10
	if n > len(all) {
		n = len(all)
	}
	s.Top = all[:n:n]
	var topSum int64
	for i := 0; i < topK && i < len(all); i++ {
		topSum += all[i].Count
	}
	if s.TotalLookups > 0 {
		s.TopKShare = float64(topSum) / float64(s.TotalLookups)
	}
	return s
}

// Flatten concatenates all indices of a batch of inferences for one table,
// or across all tables when table < 0.
func Flatten(batch [][][]int64, table int) []int64 {
	var out []int64
	for _, inf := range batch {
		for t, idx := range inf {
			if table >= 0 && t != table {
				continue
			}
			out = append(out, idx...)
		}
	}
	return out
}
