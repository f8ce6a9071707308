package serving

import (
	"errors"
	"time"

	"rmssd/internal/array"
	"rmssd/internal/core"
	"rmssd/internal/model"
	"rmssd/internal/obs"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
	"rmssd/internal/trace"
)

// Device is the compute behind one DeviceShard: a single simulated RM-SSD
// (core.RMSSD) or a multi-device array (array.Array).
type Device interface {
	// ValidateInputs checks one batch's shape and row ranges without
	// touching device state.
	ValidateInputs(denses []tensor.Vector, sparses [][][]int64) error
	// InferBatch runs one device batch starting at the given simulated time
	// and returns its predictions, its completion time and stage breakdown.
	InferBatch(at sim.Time, denses []tensor.Vector, sparses [][][]int64) ([]float32, sim.Time, core.Breakdown, error)
	// NBatch is the device batch size its kernels were fitted to.
	NBatch() int
	// Inferences counts the inferences the device has served.
	Inferences() int64
	// Counters sums the device's counters (over every member of an array).
	Counters() obs.Counters
	// SteadyStateQPS and Latency are the analytic oracle at batch n.
	SteadyStateQPS(n int) float64
	Latency(n int) time.Duration
}

// ErrNoGenerator fails a count-only request sent to a DeviceShard built
// without a trace generator: there is no stream to draw its inputs from.
var ErrNoGenerator = errors.New("serving: count-only request on a shard without a generator")

// seedStride spaces the seeds of consecutive shards. It is the stride
// between an array's members' fault seeds, so the two cannot drift apart.
const seedStride = array.SeedStride

// ShardSeed derives shard s's seed from a model's base seed. devices is the
// member count behind each shard (0 or 1 for a single device): an array
// shard's fault seed is strided by it so that array.New, which adds
// d*seedStride for member d, gives device s*devices+d a seed of its own.
// Trace seeds pass devices 1. Shard 0, and every single-device shard, keep
// base + s*seedStride.
func ShardSeed(base uint64, s, devices int) uint64 {
	return base + uint64(s)*uint64(max(devices, 1))*seedStride
}

// NewShards builds the n device shards of one hosted model; it is the only
// code that turns a model into its shard set. Every shard's device reads m,
// which is shared read-only: an opts.ArrayDevices > 1 array
// (array.NewFromModel) or a single device (core.NewFromModel). Shard s's
// fault plan is seeded ShardSeed(opts.FaultPlan.Seed, s, opts.ArrayDevices),
// so every member of every shard draws its own fault stream, and its
// count-only inputs come from a generator of tc's shape seeded
// ShardSeed(tc.Seed, s, 1). Shards are built in index order, each device
// before its generator.
func NewShards(m *model.Model, opts core.Options, n int, tc trace.Config) ([]*DeviceShard, error) {
	if n <= 0 {
		return nil, errors.New("serving: a hosted model needs at least one shard")
	}
	shards := make([]*DeviceShard, n)
	for s := range shards {
		o := opts
		o.FaultPlan.Seed = ShardSeed(opts.FaultPlan.Seed, s, opts.ArrayDevices)
		var dev Device
		var err error
		if opts.ArrayDevices > 1 {
			dev, err = array.NewFromModel(m, o)
		} else {
			dev, err = core.NewFromModel(m, o)
		}
		if err != nil {
			return nil, err
		}
		st := tc
		st.Seed = ShardSeed(tc.Seed, s, 1)
		gen, err := trace.NewGenerator(st)
		if err != nil {
			return nil, err
		}
		shards[s] = NewDeviceShard(dev, gen, m.Cfg.DenseDim)
	}
	return shards, nil
}

// Batchers returns the shards as the Batchers a Pool, Replay or ModelSpec
// takes.
func Batchers(shards []*DeviceShard) []Batcher {
	bs := make([]Batcher, len(shards))
	for i, sh := range shards {
		bs[i] = sh
	}
	return bs
}

// DeviceShard is the Batcher over one simulated device or array: one model
// replica with its own serial device clock and trace stream. The pool calls
// ServeBatch from one goroutine per shard, so DeviceShard takes no lock;
// callers that read Now concurrently with serving fence it themselves.
type DeviceShard struct {
	dev      Device
	gen      *trace.Generator // count-only inputs; nil rejects count-only requests
	denseDim int

	now sim.Time // shard-local simulated clock
	seq int      // count-only inferences drawn from gen so far

	// Batch-assembly scratch, reused across ServeBatch calls. zeroDense
	// stands in for absent dense payloads; the MLP only reads its inputs,
	// so one shared zero vector serves every inference.
	denses    []tensor.Vector
	sparses   [][][]int64
	zeroDense tensor.Vector
}

// NewDeviceShard serves batches on dev starting at simulated time 0.
// Count-only requests draw their inputs from gen (nil fails them with
// ErrNoGenerator); denseDim sizes the zero dense vector that stands in for
// an explicit request's absent dense payload.
func NewDeviceShard(dev Device, gen *trace.Generator, denseDim int) *DeviceShard {
	return &DeviceShard{dev: dev, gen: gen, denseDim: denseDim, zeroDense: make(tensor.Vector, denseDim)}
}

// Device returns the shard's device, for its counters, oracle and span
// sinks. ServeBatch changes the device's state, so reading that state while
// the shard serves needs the caller's own fence.
func (d *DeviceShard) Device() Device { return d.dev }

// Now returns the shard's simulated clock: the completion time of the last
// device batch it served.
func (d *DeviceShard) Now() sim.Time { return d.now }

// Drawn returns how many count-only inferences the shard has drawn from its
// generator.
func (d *DeviceShard) Drawn() int { return d.seq }

// ServeBatch implements Batcher: it concatenates the coalesced requests'
// inputs into one device batch at the shard's clock and advances the clock
// to the batch's completion.
//
// Every request is validated on its own: a malformed one (failing
// Request.Validate, or an explicit payload of the wrong shape or with a row
// out of range) fails alone through ReqErrs while its batch-mates are
// served. Explicit requests are served from exactly the inputs they carry;
// count-only requests draw from the generator at the shard's sequence
// cursor. A batch whose every request failed makes no device call and
// leaves the clock where it was. A device-level failure (an uncorrectable
// read) fails the whole batch; the clock still advances over the work done
// up to it.
func (d *DeviceShard) ServeBatch(reqs []Request) BatchResult {
	denses := d.denses[:0]
	sparses := d.sparses[:0]
	var reqErrs []error
	fail := func(ri int, err error) {
		if reqErrs == nil {
			reqErrs = make([]error, len(reqs))
		}
		reqErrs[ri] = err
	}
	for ri, req := range reqs {
		if err := req.Validate(); err != nil {
			fail(ri, err)
			continue
		}
		if !req.Explicit() {
			if d.gen == nil {
				fail(ri, ErrNoGenerator)
				continue
			}
			for i := 0; i < req.N; i++ {
				denses = append(denses, d.gen.DenseInput(d.seq+i, d.denseDim))
			}
			sparses = append(sparses, d.gen.Batch(req.N)...)
			d.seq += req.N
			continue
		}
		mark := len(sparses)
		for i, sp := range req.Sparse {
			sparses = append(sparses, sp)
			if req.Dense != nil {
				denses = append(denses, req.Dense[i])
			} else {
				denses = append(denses, d.zeroDense)
			}
		}
		if err := d.dev.ValidateInputs(denses[mark:], sparses[mark:]); err != nil {
			fail(ri, err)
			denses = denses[:mark]
			sparses = sparses[:mark]
		}
	}
	res := BatchResult{ReqErrs: reqErrs}
	if len(sparses) > 0 {
		outs, done, bd, err := d.dev.InferBatch(d.now, denses, sparses)
		res.Preds, res.Latency, res.Meta, res.Err = outs, done-d.now, bd, err
		d.now = done
	}
	// Drop payload references before the next batch; keep the capacity.
	clear(denses)
	clear(sparses)
	d.denses, d.sparses = denses[:0], sparses[:0]
	return res
}
