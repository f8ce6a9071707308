package main

import (
	"fmt"
	"runtime"
	"time"

	"rmssd"
)

// backend is what the replay leg needs of a single device or an array
// (simulated time is a time.Duration alias, so both satisfy it).
type backend interface {
	InferBatch(at time.Duration, denses []rmssd.Vector, sparses [][][]int64) ([]float32, time.Duration, rmssd.Breakdown, error)
	NBatch() int
	SteadyStateQPS(n int) float64
}

// replayShard is one shard's backend under rmssd.MultiReplay: it runs the
// coalesced requests as one device batch at the shard's virtual now, times
// the device call, and records each request's predictions for the live
// leg's bit-identity check.
type replayShard struct {
	dev backend
	now time.Duration
	in  *inputs
	// preds is indexed like in.reqs and shared by every shard of the leg;
	// MultiReplay calls ServeBatch from one goroutine.
	preds     [][]float32
	inferWall time.Duration
	denses    []rmssd.Vector
	sparses   [][][]int64
}

func (s *replayShard) ServeBatch(reqs []rmssd.ServingRequest) rmssd.ServingBatchResult {
	denses, sparses := s.denses[:0], s.sparses[:0]
	for _, r := range reqs {
		denses = append(denses, r.Dense...)
		sparses = append(sparses, r.Sparse...)
	}
	start := time.Now() //lint:allow wallclock host cost of the device call is a benchmark metric
	outs, done, bd, err := s.dev.InferBatch(s.now, denses, sparses)
	s.inferWall += time.Since(start) //lint:allow wallclock host cost of the device call is a benchmark metric
	res := rmssd.ServingBatchResult{Preds: outs, Latency: done - s.now, Meta: bd, Err: err}
	s.now = done
	if err == nil {
		off := 0
		for _, r := range reqs {
			n := len(r.Sparse)
			s.preds[s.in.index[&r.Sparse[0]]] = outs[off : off+n : off+n]
			off += n
		}
	}
	clear(denses)
	clear(sparses)
	s.denses, s.sparses = denses[:0], sparses[:0]
	return res
}

// fleet is one workload's replay devices: every model's shards, built with
// empty caches. The legs of a run replay through the same fleet one after
// the other, so the loaded leg meets the caches the saturated leg warmed.
type fleet struct {
	models  []rmssd.ReplayModel
	shards  []*replayShard
	arrays  []*rmssd.Array
	devices []fleetDevice
	// analyticQPS is the analytic steady-state throughput of the devices
	// at their batch caps: the oracle the replay is compared to.
	analyticQPS float64
}

// fleetDevice is one simulated device (or array member) and the key its
// spans are recorded under.
type fleetDevice struct {
	dev    *rmssd.Device
	model  string
	shard  int
	member int // array member index; -1 for a single device
}

// newFleet builds the workload's devices for replaying in.
func newFleet(w workload, in *inputs) (*fleet, error) {
	f := &fleet{}
	for _, m := range w.models {
		cfg, err := m.config()
		if err != nil {
			return nil, err
		}
		rm := rmssd.ReplayModel{Name: m.Name, MaxBatch: m.MaxBatch}
		for i := 0; i < m.Shards; i++ {
			var dev backend
			if m.ArrayDevices > 1 {
				arr, err := rmssd.NewArray(cfg, m.deviceOptions(i))
				if err != nil {
					return nil, fmt.Errorf("model %q shard %d: %w", m.Name, i, err)
				}
				f.arrays = append(f.arrays, arr)
				for di, d := range arr.Devices() {
					f.devices = append(f.devices, fleetDevice{d, m.Name, i, di})
				}
				dev = arr
			} else {
				d, err := rmssd.NewDevice(cfg, m.deviceOptions(i))
				if err != nil {
					return nil, fmt.Errorf("model %q shard %d: %w", m.Name, i, err)
				}
				f.devices = append(f.devices, fleetDevice{d, m.Name, i, -1})
				dev = d
			}
			if rm.MaxBatch == 0 {
				rm.MaxBatch = dev.NBatch()
			}
			if i == 0 {
				f.analyticQPS += dev.SteadyStateQPS(rm.MaxBatch) * float64(m.Shards)
			}
			sh := &replayShard{dev: dev, in: in}
			f.shards = append(f.shards, sh)
			rm.Backends = append(rm.Backends, sh)
		}
		f.models = append(f.models, rm)
	}
	return f, nil
}

// trace points every device's span sink at tr, or turns spans off.
func (f *fleet) trace(tr *rmssd.ObsTracer) {
	for _, d := range f.devices {
		var sink rmssd.SpanSink
		switch {
		case tr == nil:
		case d.member < 0:
			sink = tr.DeviceSink(d.model, d.shard)
		default:
			sink = tr.ArrayDeviceSink(d.model, d.shard, d.member)
		}
		d.dev.SetSpanSink(sink)
	}
}

// leg is one replay of every generated request at a fixed offered load.
type leg struct {
	res       rmssd.MultiReplayResult
	wall      time.Duration // inside MultiReplay
	inferWall time.Duration // inside device InferBatch calls
	preds     [][]float32   // per request of the inputs
	mallocs   uint64        // heap allocations inside MultiReplay
}

// simQPS is inferences per simulated second, summed over models.
func (l leg) simQPS() float64 {
	var qps float64
	for _, name := range l.res.Models {
		qps += l.res.PerModel[name].ThroughputQPS
	}
	return qps
}

// failed counts requests a device answered with an error.
func (l leg) failed() int {
	n := 0
	for _, name := range l.res.Models {
		n += l.res.PerModel[name].Failed
	}
	return n
}

// predCheck folds the per-model prediction checksums in model order.
func (l leg) predCheck() uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for _, name := range l.res.Models {
		h ^= l.res.PerModel[name].PredCheck
		h *= 1099511628211 // FNV prime
	}
	return h
}

// replay replays every request of in through the fleet on the calling
// goroutine at rate requests per simulated second per model, traced by tr
// when it is not nil.
func (f *fleet) replay(in *inputs, rate float64, seed uint64, tr *rmssd.ObsTracer) (leg, error) {
	l := leg{preds: make([][]float32, len(in.reqs))}
	for _, sh := range f.shards {
		sh.preds, sh.inferWall = l.preds, 0
	}
	f.trace(tr)
	cfg := rmssd.MultiReplayConfig{Rate: rate, Requests: len(in.reqs), Seed: seed, Tracer: tr}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now() //lint:allow wallclock replay host throughput is a benchmark metric
	res, err := rmssd.MultiReplay(f.models, cfg, &taggedSlice{reqs: in.reqs})
	l.wall = time.Since(start) //lint:allow wallclock replay host throughput is a benchmark metric
	runtime.ReadMemStats(&after)
	if err != nil {
		return leg{}, err
	}
	l.res = res
	l.mallocs = after.Mallocs - before.Mallocs
	for _, sh := range f.shards {
		l.inferWall += sh.inferWall
	}
	return l, nil
}
