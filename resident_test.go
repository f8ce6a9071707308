package rmssd_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"rmssd"
)

// A resident model (rmssd.BuildResidentModel: read-only memory outside the
// GC heap) serves exactly what a heap-built one does: for every built-in
// config, on one device and on a two-member hash array whose members host
// their MemberConfig over the shared resident layers, predictions and
// completion times are bit-identical. BuildResident splits its fill across
// GOMAXPROCS goroutines, so the check also runs at GOMAXPROCS 1 (no split)
// and 3 (chunks that do not divide a layer's rows evenly).
func TestResidentModelMatchesHeapModel(t *testing.T) {
	residentMatchesHeap(t)
	for _, procs := range []int{1, 3} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			residentMatchesHeap(t)
		})
	}
}

func residentMatchesHeap(t *testing.T) {
	for _, cfg := range rmssd.AllModels() {
		cfg.RowsPerTable = cfg.RowsForBudget(8 << 20)
		heap, err := rmssd.BuildModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		resident, err := rmssd.BuildResidentModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen := rmssd.MustNewTrace(rmssd.TraceConfig{
			Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 11,
		})
		const batch = 4
		denses := make([]rmssd.Vector, batch)
		for i := range denses {
			denses[i] = gen.DenseInput(i, cfg.DenseDim)
		}
		sparses := gen.Batch(batch)

		type inferer interface {
			InferBatch(at time.Duration, denses []rmssd.Vector, sparses [][][]int64) ([]float32, time.Duration, rmssd.Breakdown, error)
		}
		run := func(t *testing.T, dev inferer) ([]float32, time.Duration) {
			t.Helper()
			outs, done, _, err := dev.InferBatch(0, denses, sparses)
			if err != nil {
				t.Fatal(err)
			}
			return outs, done
		}
		same := func(t *testing.T, a, b inferer) {
			t.Helper()
			wantOuts, wantDone := run(t, a)
			gotOuts, gotDone := run(t, b)
			if gotDone != wantDone {
				t.Fatalf("resident model completes at %v, heap model at %v", gotDone, wantDone)
			}
			for i := range wantOuts {
				if math.Float32bits(gotOuts[i]) != math.Float32bits(wantOuts[i]) {
					t.Fatalf("inference %d: resident model predicts %v, heap model %v", i, gotOuts[i], wantOuts[i])
				}
			}
		}

		t.Run(cfg.Name+"/device", func(t *testing.T) {
			a, err := rmssd.NewDeviceFromModel(heap, rmssd.DeviceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := rmssd.NewDeviceFromModel(resident, rmssd.DeviceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			same(t, a, b)
		})
		t.Run(cfg.Name+"/hash-array", func(t *testing.T) {
			opts := rmssd.DeviceOptions{ArrayDevices: 2, Partition: string(rmssd.PartitionHash)}
			a, err := rmssd.NewArrayFromModel(heap, opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := rmssd.NewArrayFromModel(resident, opts)
			if err != nil {
				t.Fatal(err)
			}
			for d, dev := range b.Devices() {
				m := dev.Model()
				if want := b.Layout().MemberConfig(cfg, d); !reflect.DeepEqual(m.Cfg, want) {
					t.Fatalf("member %d hosts %+v, want %+v", d, m.Cfg, want)
				}
				if &m.Top[0].W.Data[0] != &resident.Top[0].W.Data[0] {
					t.Fatalf("member %d holds its own copy of the resident weights", d)
				}
			}
			same(t, a, b)
		})
	}
}
