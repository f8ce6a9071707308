package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"rmssd/internal/model"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
	"rmssd/internal/trace"
)

// localityConfigs enumerates the four cache×dedup settings whose predictions
// must be byte-identical: the locality path only removes redundant fetches.
var localityConfigs = []struct {
	name  string
	cache int64 // EV cache budget in bytes (0 = off)
	dedup bool
}{
	{"plain", 0, false},
	{"cache", 4 << 20, false},
	{"dedup", 0, true},
	{"cache+dedup", 4 << 20, true},
}

func newLocality(t *testing.T, cfg model.Config, cacheBytes int64, dedup bool) *RMSSD {
	t.Helper()
	r, err := New(cfg, Options{
		Geometry:     smallGeometry(),
		EVCacheBytes: cacheBytes,
		DedupLookups: dedup,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// hotInputs draws n inferences from a K=2 hot trace (heaviest reuse, so the
// cache and dedup paths actually fire).
func hotInputs(t *testing.T, cfg model.Config, n int, seed uint64) ([]tensor.Vector, [][][]int64) {
	t.Helper()
	tc, err := trace.Config{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: seed,
	}.WithLocality(2)
	if err != nil {
		t.Fatal(err)
	}
	g := trace.MustNew(tc)
	denses := make([]tensor.Vector, n)
	sparses := g.Batch(n)
	for i := range denses {
		denses[i] = g.DenseInput(i, cfg.DenseDim)
	}
	return denses, sparses
}

// runStream feeds the inputs through the device in batches, each batch
// starting at the previous one's completion, and returns all predictions
// plus the final simulated time.
func runStream(r *RMSSD, denses []tensor.Vector, sparses [][][]int64, batch int) ([]float32, sim.Time) {
	var preds []float32
	var now sim.Time
	for off := 0; off < len(sparses); off += batch {
		end := off + batch
		if end > len(sparses) {
			end = len(sparses)
		}
		outs, done, _, err := r.InferBatch(now, denses[off:end], sparses[off:end])
		if err != nil {
			panic(fmt.Sprintf("core: %v", err))
		}
		preds = append(preds, outs...)
		now = done
	}
	return preds, now
}

func bitsEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d predictions, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: prediction %d = %x, want %x (values %v vs %v)",
				name, i, math.Float32bits(got[i]), math.Float32bits(want[i]), got[i], want[i])
		}
	}
}

// TestLocalityDifferentialSynthetic: all four cache×dedup configurations
// produce byte-identical predictions on a seeded hot synthetic trace.
func TestLocalityDifferentialSynthetic(t *testing.T) {
	cfg := smallCfg("RMC1")
	denses, sparses := hotInputs(t, cfg, 48, 42)
	var want []float32
	for _, lc := range localityConfigs {
		r := newLocality(t, cfg, lc.cache, lc.dedup)
		preds, _ := runStream(r, denses, sparses, 16)
		if want == nil {
			want = preds
			continue
		}
		bitsEqual(t, lc.name, preds, want)
	}
}

// TestLocalityDifferentialCriteo repeats the differential over the Criteo
// stand-in stream: synthesised TSV through the real parser, adapted to the
// model's sparse shape.
func TestLocalityDifferentialCriteo(t *testing.T) {
	cfg := smallCfg("RMC1")
	gen := trace.MustNew(trace.Config{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 9,
	})
	var tsv bytes.Buffer
	if err := trace.SynthesizeCriteoTSV(&tsv, 96, gen); err != nil {
		t.Fatal(err)
	}
	p, err := trace.NewCriteoParser(&tsv, cfg.RowsPerTable)
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.CriteoRecord
	for {
		rec, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	const n = 24
	perInf := len(recs) / n
	denses := make([]tensor.Vector, n)
	sparses := make([][][]int64, n)
	for i := 0; i < n; i++ {
		sparses[i] = trace.RecordsToInference(recs[i*perInf:(i+1)*perInf], cfg.Tables, cfg.Lookups)
		denses[i] = gen.DenseInput(i, cfg.DenseDim)
	}

	var want []float32
	for _, lc := range localityConfigs {
		r := newLocality(t, cfg, lc.cache, lc.dedup)
		preds, _ := runStream(r, denses, sparses, 8)
		if want == nil {
			want = preds
			continue
		}
		bitsEqual(t, lc.name, preds, want)
	}
}

// TestLocalityParallelMatchesSequential: with the cache and dedup on,
// devices driven from concurrent goroutines (as the serving pools drive
// their shards) must each reproduce a device replayed alone exactly —
// predictions AND simulated times AND cache counters. All cache state is
// per device, so host parallelism across devices cannot reorder it.
func TestLocalityParallelMatchesSequential(t *testing.T) {
	cfg := smallCfg("RMC1")
	denses, sparses := hotInputs(t, cfg, 32, 7)
	seqDev := newLocality(t, cfg, 4<<20, true)
	seqPreds, seqDone := runStream(seqDev, denses, sparses, 16)

	const workers = 4
	devs := make([]*RMSSD, workers)
	for i := range devs {
		devs[i] = newLocality(t, cfg, 4<<20, true)
	}
	preds := make([][]float32, workers)
	dones := make([]sim.Time, workers)
	var wg sync.WaitGroup
	for i := range devs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			preds[i], dones[i] = runStream(devs[i], denses, sparses, 16)
		}(i)
	}
	wg.Wait()

	for i, parDev := range devs {
		bitsEqual(t, fmt.Sprintf("parallel device %d", i), preds[i], seqPreds)
		if dones[i] != seqDone {
			t.Fatalf("device %d: parallel completion %v, sequential %v", i, dones[i], seqDone)
		}
		ss, ps := seqDev.Lookup().EVCache().Stats(), parDev.Lookup().EVCache().Stats()
		if ss != ps {
			t.Fatalf("device %d: cache stats diverge: sequential %+v, parallel %+v", i, ss, ps)
		}
	}
}

// TestLocalityTimingSeedStable: two devices in the same configuration replay
// the same stream to the same simulated completion time and cache counters.
func TestLocalityTimingSeedStable(t *testing.T) {
	cfg := smallCfg("RMC1")
	denses, sparses := hotInputs(t, cfg, 32, 13)
	a := newLocality(t, cfg, 4<<20, true)
	b := newLocality(t, cfg, 4<<20, true)
	aPreds, aDone := runStream(a, denses, sparses, 16)
	bPreds, bDone := runStream(b, denses, sparses, 16)
	bitsEqual(t, "rerun", bPreds, aPreds)
	if aDone != bDone {
		t.Fatalf("reruns complete at %v vs %v", aDone, bDone)
	}
	if as, bs := a.Lookup().EVCache().Stats(), b.Lookup().EVCache().Stats(); as != bs {
		t.Fatalf("cache stats diverge across reruns: %+v vs %+v", as, bs)
	}
}

// TestLocalityCacheSpeedsUpHotTrace: the whole point — on a hot trace the
// cached+deduped device finishes the same work strictly earlier.
func TestLocalityCacheSpeedsUpHotTrace(t *testing.T) {
	cfg := smallCfg("RMC1")
	denses, sparses := hotInputs(t, cfg, 32, 21)
	plain := newLocality(t, cfg, 0, false)
	fast := newLocality(t, cfg, 4<<20, true)
	_, plainDone := runStream(plain, denses, sparses, 16)
	_, fastDone := runStream(fast, denses, sparses, 16)
	if fastDone >= plainDone {
		t.Fatalf("cache+dedup completion %v, plain %v — no speedup", fastDone, plainDone)
	}
}

// TestFig14HitRatios: a cache holding the hot set observes the Fig. 14 hit
// ratios — K = 0, 0.3, 1, 2 give roughly 80/65/45/30 %. Dedup stays OFF so
// every lookup probes the cache, and the cache is sized well above the hot
// set so only the cold (near-unique) stream misses after warm-up.
func TestFig14HitRatios(t *testing.T) {
	cfg := smallCfg("RMC1")
	for _, k := range []float64{0, 0.3, 1, 2} {
		want := params.LocalityHitRatio[k]
		tc, err := trace.Config{
			Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 3,
		}.WithLocality(k)
		if err != nil {
			t.Fatal(err)
		}
		g := trace.MustNew(tc)
		// Budget for 16x the whole hot set (all tables): rarely-drawn hot
		// rows must survive LRU churn from the cold stream, which inserts
		// on every miss.
		hotEntries := int64(cfg.Tables) * g.HotSetSize()
		r := newLocality(t, cfg, 16*hotEntries*int64(cfg.EVSize()), false)

		warm := g.Batch(16)
		denses := make([]tensor.Vector, len(warm))
		for i := range denses {
			denses[i] = g.DenseInput(i, cfg.DenseDim)
		}
		if _, _, _, err := r.InferBatch(0, denses, warm); err != nil {
			t.Fatal(err)
		}
		r.Lookup().EVCache().ResetStats()

		measure := g.Batch(24)
		md := make([]tensor.Vector, len(measure))
		for i := range md {
			md[i] = g.DenseInput(i, cfg.DenseDim)
		}
		if _, _, _, err := r.InferBatch(0, md, measure); err != nil {
			t.Fatal(err)
		}

		got := r.Lookup().EVCache().HitRatio()
		if math.Abs(got-want) > 0.05 {
			t.Errorf("K=%v: hit ratio %.3f, want %.2f +/- 0.05", k, got, want)
		}
	}
}

// TestUpdateVectorInvalidatesCache: overwriting a row through the block path
// must drop its cached copy, so the next inference reads the new bytes.
func TestUpdateVectorInvalidatesCache(t *testing.T) {
	cfg := smallCfg("RMC1")
	r := newLocality(t, cfg, 4<<20, false)
	ref := newLocality(t, cfg, 0, false)

	// One inference that repeatedly hits (0, 5), priming the cache.
	sparse := make([][]int64, cfg.Tables)
	for t := range sparse {
		rows := make([]int64, cfg.Lookups)
		for i := range rows {
			rows[i] = 5
		}
		sparse[t] = rows
	}
	dense := make(tensor.Vector, cfg.DenseDim)
	batch := [][][]int64{sparse}

	before, _, _, bErr := r.InferBatch(0, []tensor.Vector{dense}, batch)
	refBefore, _, _, rbErr := ref.InferBatch(0, []tensor.Vector{dense}, batch)
	if bErr != nil || rbErr != nil {
		t.Fatal(bErr, rbErr)
	}
	bitsEqual(t, "before update", before, refBefore)

	v := make(tensor.Vector, cfg.EVDim)
	for i := range v {
		v[i] = float32(i) * 0.25
	}
	var at time.Duration
	for tab := 0; tab < cfg.Tables; tab++ {
		var err error
		if at, err = r.UpdateVector(at, tab, 5, v); err != nil {
			t.Fatal(err)
		}
	}
	var refAt time.Duration
	for tab := 0; tab < cfg.Tables; tab++ {
		var err error
		if refAt, err = ref.UpdateVector(refAt, tab, 5, v); err != nil {
			t.Fatal(err)
		}
	}

	after, _, _, aErr := r.InferBatch(at, []tensor.Vector{dense}, batch)
	refAfter, _, _, raErr := ref.InferBatch(refAt, []tensor.Vector{dense}, batch)
	if aErr != nil || raErr != nil {
		t.Fatal(aErr, raErr)
	}
	bitsEqual(t, "after update", after, refAfter)
	if math.Float32bits(after[0]) == math.Float32bits(before[0]) {
		t.Fatal("update did not change the prediction; test is vacuous")
	}
}

// TestCachedTwinMatchesUncachedAcrossWrites: the EV cache keeps no vector
// bytes, so a hit reads the device's page store. Twin devices, one cached
// and one not, on the linear and the dynamic FTL, run chained batches that
// alternate timing-only and materialised inference, with UpdateVector
// calls between batches on rows the next batch looks up. Every
// materialised prediction must be bit-identical across the twins, the
// cached twin must hit (entries filled by timing-only batches, and rows
// sharing a page with an updated one, included), and the updates must move
// the predictions.
func TestCachedTwinMatchesUncachedAcrossWrites(t *testing.T) {
	const batch = 8
	for _, dynamic := range []bool{false, true} {
		name := fmt.Sprintf("dynamic=%v", dynamic)
		cfg := smallCfg("RMC1")
		cfg.RowsPerTable = 512 // the dynamic FTL writes every table at construction
		twin := func(cacheBytes int64) *RMSSD {
			r, err := New(cfg, Options{Geometry: smallGeometry(), Dynamic: dynamic, EVCacheBytes: cacheBytes})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		cached, plain, untouched := twin(4<<20), twin(0), twin(0)
		denses, sparses := hotInputs(t, cfg, 8*batch, 23)
		var cachedAt, plainAt sim.Time
		moved := false
		for off := 0; off < len(sparses); off += batch {
			ds, ss := denses[off:off+batch], sparses[off:off+batch]
			if off/batch%2 == 0 {
				var err error
				if cachedAt, _, err = cached.InferBatchTiming(cachedAt, ss); err != nil {
					t.Fatal(err)
				}
				if plainAt, _, err = plain.InferBatchTiming(plainAt, ss); err != nil {
					t.Fatal(err)
				}
			} else {
				got, done, _, err := cached.InferBatch(cachedAt, ds, ss)
				if err != nil {
					t.Fatal(err)
				}
				want, pdone, _, err := plain.InferBatch(plainAt, ds, ss)
				if err != nil {
					t.Fatal(err)
				}
				bitsEqual(t, fmt.Sprintf("%s batch %d", name, off/batch), got, want)
				cachedAt, plainAt = done, pdone
				orig, _, _, err := untouched.InferBatch(0, ds, ss)
				if err != nil {
					t.Fatal(err)
				}
				for i := range orig {
					moved = moved || math.Float32bits(orig[i]) != math.Float32bits(want[i])
				}
			}
			if off+batch == len(sparses) {
				break
			}
			// Overwrite, in every table, the first row the next batch looks
			// up: hot rows, so mostly resident in the cache.
			next := sparses[off+batch]
			v := make(tensor.Vector, cfg.EVDim)
			for i := range v {
				v[i] = float32(off+i) * 0.125
			}
			for tab := range next {
				var err error
				if cachedAt, err = cached.UpdateVector(cachedAt, tab, next[tab][0], v); err != nil {
					t.Fatal(err)
				}
				if plainAt, err = plain.UpdateVector(plainAt, tab, next[tab][0], v); err != nil {
					t.Fatal(err)
				}
			}
		}
		if c := cached.Counters(); c.CacheHits == 0 {
			t.Fatalf("%s: cached twin counters %+v show no hits", name, c)
		}
		if !moved {
			t.Fatalf("%s: updates never changed a prediction; test is vacuous", name)
		}
	}
}
