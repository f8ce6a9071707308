package core

import (
	"fmt"
	"reflect"
	"testing"

	"rmssd/internal/model"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
	"rmssd/internal/trace"
)

// smallCacheEntries is far below one batch's lookups (16 RMC1 inferences
// issue 10240), so every batch evicts entries it reserved itself and hands
// their cache slots to later reservations before its reduce phase fills
// them: the stale-handle path of the slab cache.
const smallCacheEntries = 48

// batchTimeline is everything InferBatch reports about one batch.
type batchTimeline struct {
	preds []float32
	done  sim.Time
	bd    Breakdown
}

// runTimelines feeds the inputs through r in batches, each starting at the
// previous batch's completion, recording every batch's outputs.
func runTimelines(t *testing.T, r *RMSSD, denses []tensor.Vector, sparses [][][]int64, batch int) []batchTimeline {
	t.Helper()
	var out []batchTimeline
	var now sim.Time
	for off := 0; off < len(sparses); off += batch {
		end := min(off+batch, len(sparses))
		preds, done, bd, err := r.InferBatch(now, denses[off:end], sparses[off:end])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, batchTimeline{preds, done, bd})
		now = done
	}
	return out
}

// sameTimelines compares predictions bit for bit and, when timing is set,
// each batch's completion and stage breakdown.
func sameTimelines(t *testing.T, name string, got, want []batchTimeline, timing bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d batches, want %d", name, len(got), len(want))
	}
	for i := range got {
		bitsEqual(t, fmt.Sprintf("%s batch %d", name, i), got[i].preds, want[i].preds)
		if timing && (got[i].done != want[i].done || !reflect.DeepEqual(got[i].bd, want[i].bd)) {
			t.Fatalf("%s batch %d: done %v %+v, want %v %+v", name, i, got[i].done, got[i].bd, want[i].done, want[i].bd)
		}
	}
}

// spreadInputs builds n inferences whose lookups never repeat a (table,row)
// within a 16-inference batch and recur only thousands of lookups later, so
// a small cache evicts every vector before it is asked for again.
func spreadInputs(cfg model.Config, n int) ([]tensor.Vector, [][][]int64) {
	g := trace.MustNew(trace.Config{Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 5})
	denses := make([]tensor.Vector, n)
	sparses := make([][][]int64, n)
	for i := range sparses {
		denses[i] = g.DenseInput(i, cfg.DenseDim)
		sparses[i] = make([][]int64, cfg.Tables)
		for tab := range sparses[i] {
			rows := make([]int64, cfg.Lookups)
			for j := range rows {
				rows[j] = int64((i*cfg.Lookups + j + tab*97) % int(cfg.RowsPerTable))
			}
			sparses[i][tab] = rows
		}
	}
	return denses, sparses
}

// TestSmallCacheMatchesUncached drives a cache smaller than one batch's
// lookups with dedup on and off.
//
//   - On a stream without reuse the cache never hits, so predictions AND
//     every batch's completion and stage breakdown must equal the uncached
//     device's, even though every batch evicts its own reservations.
//   - On a K=0 hot stream predictions must still equal the uncached
//     device's.
func TestSmallCacheMatchesUncached(t *testing.T) {
	cfg := smallCfg("RMC1")
	budget := int64(smallCacheEntries * cfg.EVSize())
	if per := 16 * cfg.Tables * cfg.Lookups; per <= smallCacheEntries {
		t.Fatalf("batch issues %d lookups; the cache must be smaller", per)
	}
	tc, err := trace.Config{Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 17}.WithLocality(0)
	if err != nil {
		t.Fatal(err)
	}
	g := trace.MustNew(tc)
	hotSparses := g.Batch(48)
	hotDenses := make([]tensor.Vector, len(hotSparses))
	for i := range hotDenses {
		hotDenses[i] = g.DenseInput(i, cfg.DenseDim)
	}
	spreadDenses, spreadSparses := spreadInputs(cfg, 48)

	wantSpread := runTimelines(t, newLocality(t, cfg, 0, false), spreadDenses, spreadSparses, 16)
	wantHot := runTimelines(t, newLocality(t, cfg, 0, false), hotDenses, hotSparses, 16)
	for _, dedup := range []bool{false, true} {
		name := fmt.Sprintf("dedup=%v", dedup)

		r := newLocality(t, cfg, budget, dedup)
		sameTimelines(t, name+"/spread", runTimelines(t, r, spreadDenses, spreadSparses, 16), wantSpread, true)
		st := r.Lookup().EVCache().Stats()
		if st.Hits != 0 || st.Evictions == 0 {
			t.Fatalf("%s/spread: cache stats %+v, want no hits and some evictions", name, st)
		}

		r = newLocality(t, cfg, budget, dedup)
		sameTimelines(t, name+"/hot", runTimelines(t, r, hotDenses, hotSparses, 16), wantHot, false)
		// Without dedup, repeats within a batch merge through the
		// cache's in-flight entries and count as hits; with dedup the
		// engine merges them first.
		st = r.Lookup().EVCache().Stats()
		if (!dedup && st.Hits == 0) || st.Evictions == 0 {
			t.Fatalf("%s/hot: cache stats %+v, want evictions (and hits without dedup)", name, st)
		}
	}
}

// TestFullDeviceCacheMissAllocatesNothing: on the cache a device filled by
// real traffic, a steady-state miss that evicts and refills a slot makes no
// heap allocation.
func TestFullDeviceCacheMissAllocatesNothing(t *testing.T) {
	cfg := smallCfg("RMC1")
	r := newLocality(t, cfg, int64(smallCacheEntries*cfg.EVSize()), false)
	denses, sparses := spreadInputs(cfg, 16)
	runTimelines(t, r, denses, sparses, 16)
	c := r.Lookup().EVCache()
	if c.Len() != c.CapEntries() {
		t.Fatalf("cache holds %d of %d entries after a batch", c.Len(), c.CapEntries())
	}
	row := int64(0)
	allocs := testing.AllocsPerRun(500, func() {
		// Table index past the model's keeps every key fresh.
		if c.Get(cfg.Tables, row) {
			t.Fatal("fresh key hit")
		}
		c.Reserve(cfg.Tables, row)
		row++
	})
	if allocs != 0 {
		t.Fatalf("steady-state miss+evict+fill: %v allocs/op, want 0", allocs)
	}
}
