package serving_test

import (
	"errors"
	"math"
	"testing"

	"rmssd/internal/array"
	"rmssd/internal/core"
	"rmssd/internal/model"
	"rmssd/internal/serving"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
	"rmssd/internal/trace"
)

// shardConfig is a small RMC1: a few MiB of tables keeps device builds fast.
func shardConfig() model.Config {
	cfg := model.RMC1()
	cfg.RowsPerTable = cfg.RowsForBudget(2 << 20)
	return cfg
}

// shardBackends are the real devices the shard contract is checked on: one
// RM-SSD and a two-member hash-partitioned array.
var shardBackends = []struct {
	name string
	opts core.Options
}{
	{"core", core.Options{}},
	{"array", core.Options{ArrayDevices: 2, Partition: string(array.StrategyHash)}},
}

// newBackend builds a fresh device for opts.
func newBackend(t testing.TB, cfg model.Config, opts core.Options) serving.Device {
	t.Helper()
	var (
		dev serving.Device
		err error
	)
	if opts.ArrayDevices > 1 {
		dev, err = array.New(cfg, opts)
	} else {
		dev, err = core.New(cfg, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// countingDevice counts the device calls a shard makes.
type countingDevice struct {
	serving.Device
	calls int
}

func (c *countingDevice) InferBatch(at sim.Time, denses []tensor.Vector, sparses [][][]int64) ([]float32, sim.Time, core.Breakdown, error) {
	c.calls++
	return c.Device.InferBatch(at, denses, sparses)
}

// newGen is a generator of cfg's shape.
func newGen(t testing.TB, cfg model.Config, seed uint64) *trace.Generator {
	t.Helper()
	gen, err := trace.NewGenerator(trace.Config{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// drawExplicit draws n inferences from gen at cursor *seq, exactly as a
// shard's count-only path draws them, and advances the cursor.
func drawExplicit(gen *trace.Generator, seq *int, n, denseDim int) serving.Request {
	denses := make([]tensor.Vector, n)
	for i := range denses {
		denses[i] = gen.DenseInput(*seq+i, denseDim)
	}
	*seq += n
	return serving.Request{Sparse: gen.Batch(n), Dense: denses}
}

// samePreds fails unless got and want are bit-identical.
func samePreds(t *testing.T, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d predictions, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("prediction %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestDeviceShardContract checks the shard's contract on each real backend.
func TestDeviceShardContract(t *testing.T) {
	cfg := shardConfig()
	dim := cfg.DenseDim
	cases := []struct {
		name string
		run  func(t *testing.T, newDev func() serving.Device)
	}{
		{"malformed request fails alone", func(t *testing.T, newDev func() serving.Device) {
			malformed := []struct {
				name  string
				spoil func(r *serving.Request)
				want  error
			}{
				{"dense dim", func(r *serving.Request) { r.Dense[0] = make(tensor.Vector, dim+1) }, core.ErrShapeMismatch},
				{"row out of range", func(r *serving.Request) { r.Sparse[0][0][0] = cfg.RowsPerTable }, core.ErrRowOutOfRange},
			}
			for _, m := range malformed {
				gen, seq := newGen(t, cfg, 21), 0
				good1 := drawExplicit(gen, &seq, 2, dim)
				bad := drawExplicit(gen, &seq, 1, dim)
				m.spoil(&bad)
				good2 := drawExplicit(gen, &seq, 3, dim)

				res := serving.NewDeviceShard(newDev(), nil, dim).ServeBatch([]serving.Request{good1, bad, good2})
				if res.Err != nil || len(res.ReqErrs) != 3 || res.ReqErrs[0] != nil || res.ReqErrs[2] != nil {
					t.Fatalf("%s: batch err %v, request errs %v", m.name, res.Err, res.ReqErrs)
				}
				if !errors.Is(res.ReqErrs[1], m.want) {
					t.Fatalf("%s: malformed request err %v, want %v", m.name, res.ReqErrs[1], m.want)
				}
				ref := serving.NewDeviceShard(newDev(), nil, dim).ServeBatch([]serving.Request{good1, good2})
				samePreds(t, res.Preds, ref.Preds)
				if res.Latency != ref.Latency {
					t.Fatalf("%s: latency %v, want %v", m.name, res.Latency, ref.Latency)
				}
			}
		}},
		{"all-failed batch makes no device call", func(t *testing.T, newDev func() serving.Device) {
			dev := &countingDevice{Device: newDev()}
			sh := serving.NewDeviceShard(dev, nil, dim)
			gen, seq := newGen(t, cfg, 22), 0
			sh.ServeBatch([]serving.Request{drawExplicit(gen, &seq, 2, dim)})
			now, calls := sh.Now(), dev.calls
			if now <= 0 || calls != 1 {
				t.Fatalf("good batch: clock %v after %d calls", now, calls)
			}
			bad := drawExplicit(gen, &seq, 1, dim)
			bad.Sparse[0][0][0] = -1
			res := sh.ServeBatch([]serving.Request{bad, {N: 2}})
			if res.Preds != nil || res.ReqErrs[0] == nil || res.ReqErrs[1] == nil {
				t.Fatalf("all-failed batch served: preds %v, errs %v", res.Preds, res.ReqErrs)
			}
			if dev.calls != calls || sh.Now() != now {
				t.Fatalf("all-failed batch reached the device: %d calls, clock %v -> %v", dev.calls-calls, now, sh.Now())
			}
		}},
		{"count-only without generator fails typed", func(t *testing.T, newDev func() serving.Device) {
			gen, seq := newGen(t, cfg, 23), 0
			good := drawExplicit(gen, &seq, 2, dim)
			res := serving.NewDeviceShard(newDev(), nil, dim).ServeBatch([]serving.Request{{N: 3}, good})
			if !errors.Is(res.ReqErrs[0], serving.ErrNoGenerator) || res.ReqErrs[1] != nil || res.Err != nil {
				t.Fatalf("errs %v, batch err %v", res.ReqErrs, res.Err)
			}
			if len(res.Preds) != 2 {
				t.Fatalf("%d predictions, want the explicit request's 2", len(res.Preds))
			}
		}},
		{"count-only matches explicit from the same stream", func(t *testing.T, newDev func() serving.Device) {
			batches := [][]int{{2, 1}, {3}, {1, 1, 2}}
			counted := serving.NewDeviceShard(newDev(), newGen(t, cfg, 24), dim)
			explicit := serving.NewDeviceShard(newDev(), nil, dim)
			gen, seq := newGen(t, cfg, 24), 0
			for _, sizes := range batches {
				var creqs, ereqs []serving.Request
				for _, n := range sizes {
					creqs = append(creqs, serving.Request{N: n})
					ereqs = append(ereqs, drawExplicit(gen, &seq, n, dim))
				}
				c, e := counted.ServeBatch(creqs), explicit.ServeBatch(ereqs)
				if c.Err != nil || e.Err != nil {
					t.Fatal(c.Err, e.Err)
				}
				samePreds(t, c.Preds, e.Preds)
			}
			if counted.Now() != explicit.Now() || counted.Drawn() != seq {
				t.Fatalf("clocks %v vs %v, drawn %d of %d", counted.Now(), explicit.Now(), counted.Drawn(), seq)
			}
		}},
	}
	for _, b := range shardBackends {
		for _, c := range cases {
			t.Run(b.name+"/"+c.name, func(t *testing.T) {
				c.run(t, func() serving.Device { return newBackend(t, cfg, b.opts) })
			})
		}
	}
}

// FuzzDeviceShard serves a seeded mix of valid, malformed and count-only
// requests, coalesced into arbitrary batches, on one shard. Each script byte
// is one request: bits 0-1 pick its kind (explicit, explicit without dense,
// count-only, malformed), bits 2-3 its size (1-4 inferences), bits 4-5 the
// malformation, and bit 6 closes the batch after it. Every request that
// succeeds must get the predictions its inputs get when served alone on a
// fresh twin device; every malformed request must fail; nothing may panic.
func FuzzDeviceShard(f *testing.F) {
	f.Add(uint64(1), []byte{0x00, 0x45, 0x02, 0x43, 0x01})
	f.Add(uint64(7), []byte{0x03, 0x13, 0x23, 0x73})
	f.Add(uint64(9), []byte{0x0e, 0x4c, 0x31, 0x02, 0x06, 0x40})
	f.Add(uint64(3), []byte{})
	cfg := shardConfig()
	dim := cfg.DenseDim
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		if len(script) > 24 {
			script = script[:24]
		}
		opts := core.Options{}
		sh := serving.NewDeviceShard(newBackend(t, cfg, opts), newGen(t, cfg, seed^0x5eed), dim)
		twin := newBackend(t, cfg, opts)
		client, cseq := newGen(t, cfg, seed), 0
		shardGen, sseq := newGen(t, cfg, seed^0x5eed), 0

		var (
			batch []serving.Request
			want  []serving.Request // the inputs each request is served from; nil Sparse when malformed
		)
		serve := func() {
			if len(batch) == 0 {
				return
			}
			res := sh.ServeBatch(batch)
			if res.Err != nil {
				t.Fatalf("batch failed: %v", res.Err)
			}
			off := 0
			for i, w := range want {
				var err error
				if i < len(res.ReqErrs) {
					err = res.ReqErrs[i]
				}
				if w.Sparse == nil {
					if err == nil {
						t.Fatalf("malformed request %d of the batch was served", i)
					}
					continue
				}
				if err != nil {
					t.Fatalf("valid request %d of the batch failed: %v", i, err)
				}
				alone, _, _, err := twin.InferBatch(0, w.Dense, w.Sparse)
				if err != nil {
					t.Fatal(err)
				}
				if off+len(alone) > len(res.Preds) {
					t.Fatalf("%d predictions for the batch, request %d needs [%d,%d)", len(res.Preds), i, off, off+len(alone))
				}
				samePreds(t, res.Preds[off:off+len(alone)], alone)
				off += len(alone)
			}
			if off != len(res.Preds) {
				t.Fatalf("%d predictions for %d served inferences", len(res.Preds), off)
			}
			batch, want = batch[:0], want[:0]
		}
		for _, b := range script {
			n := 1 + int(b>>2&3)
			var req, w serving.Request
			switch b & 3 {
			case 0:
				req = drawExplicit(client, &cseq, n, dim)
				w = req
			case 1:
				req = drawExplicit(client, &cseq, n, dim)
				req.Dense = nil
				w = serving.Request{Sparse: req.Sparse, Dense: make([]tensor.Vector, n)}
				for i := range w.Dense {
					w.Dense[i] = make(tensor.Vector, dim)
				}
			case 2:
				req = serving.Request{N: n}
				w = drawExplicit(shardGen, &sseq, n, dim)
			case 3:
				req = drawExplicit(client, &cseq, n, dim)
				switch b >> 4 & 3 {
				case 0:
					req.Dense[n-1] = make(tensor.Vector, dim-1)
				case 1:
					req.Sparse[0][n%cfg.Tables][0] = cfg.RowsPerTable + int64(n)
				case 2:
					req.Sparse[n-1] = req.Sparse[n-1][1:]
				case 3:
					req.Dense = req.Dense[1:]
				}
			}
			batch, want = append(batch, req), append(want, w)
			if b&0x40 != 0 {
				serve()
			}
		}
		serve()
	})
}
