package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"rmssd"
)

const (
	// setupStarts is how many cold starts setup_s takes the median of.
	setupStarts = 7
	// maxReported bounds how many individual wrong replies are listed.
	maxReported = 5
)

// env is where one benchmark invocation works.
type env struct {
	tmp     string        // scratch directory for models files and profiles
	rmserve string        // built rmserve binary
	warmUp  time.Duration // each live rung's discarded lead-in
}

// runWorkload runs both legs of one workload. Untraced, it measures the
// end-to-end metrics; traced, the per-layer ledger. Returned errors are
// failures to run at all; wrong outputs are recorded as report problems.
func runWorkload(ctx context.Context, e env, w workload, seed uint64, seconds int, traced bool) (*report, error) {
	r := &report{workload: w.name, metrics: map[string]value{}}
	in, err := makeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	_, sat, load, err := replayLegs(w, in, seed, nil, nil)
	if err != nil {
		return nil, err
	}
	r.checkReplay(w, in, seed, sat, load)
	measure := time.Duration(seconds) * time.Second
	if traced {
		return r, r.traced(ctx, e, w, in, seed, measure, sat, load)
	}
	sm := simsOf(w, sat, load)
	primary := w.models[0].Name
	r.set("sim_qps", sm.qps, sat.res.Inferences, "inferences, replay at >=3x capacity from empty caches")
	r.set("sim_p50_ms", ms(sm.p50), sm.n, "requests of "+primary+", replay at ~0.45x capacity, warm caches")
	r.set("sim_p99_ms", ms(sm.p99), sm.n, "requests of "+primary+", replay at ~0.45x capacity, warm caches")
	return r, r.live(ctx, e, w, in, load.preds, seed, measure)
}

// sims are the simulated-clock end-to-end numbers of a pair of replay legs.
type sims struct {
	qps      float64
	p50, p99 time.Duration
	n        int
}

// simsOf reads sim_qps from the saturated leg (all models) and the latency
// percentiles from the loaded leg's primary model.
func simsOf(w workload, sat, load leg) sims {
	p := load.res.PerModel[w.models[0].Name]
	return sims{qps: sat.simQPS(), p50: p.P50, p99: p.P99, n: p.Requests}
}

// replayLegs builds a fleet and replays every request through it twice:
// saturated from empty caches, then loaded on the devices the first leg
// warmed. Each leg is traced by its tracer when one is given.
func replayLegs(w workload, in *inputs, seed uint64, satTr, loadTr *rmssd.ObsTracer) (f *fleet, sat, load leg, err error) {
	// Start from a collected heap, so the legs do not pay for earlier work.
	runtime.GC()
	if f, err = newFleet(w, in); err != nil {
		return nil, leg{}, leg{}, err
	}
	if sat, err = f.replay(in, w.satRate, seed, satTr); err != nil {
		return nil, leg{}, leg{}, fmt.Errorf("replay sat: %w", err)
	}
	if load, err = f.replay(in, w.loadRate, seed, loadTr); err != nil {
		return nil, leg{}, leg{}, fmt.Errorf("replay load: %w", err)
	}
	return f, sat, load, nil
}

// checkReplay records the replay legs' correctness: no failed request,
// every request answered identically by both legs, and the pinned
// prediction checksum at the default seed.
func (r *report) checkReplay(w workload, in *inputs, seed uint64, sat, load leg) {
	r.attempted += 2 * int64(len(in.reqs))
	if f := sat.failed() + load.failed(); f > 0 {
		r.failed += int64(f)
		r.problem("replay: %d requests failed", f)
	}
	for i, tr := range in.reqs {
		a, b := sat.preds[i], load.preds[i]
		if len(a) != len(tr.Req.Sparse) || !sameBits(a, b) {
			r.problem("replay: request %d predictions differ between legs (%v vs %v)", i, a, b)
			break
		}
	}
	if seed == defaultSeed && load.predCheck() != w.predCheck {
		r.problem("replay: prediction checksum %016x, pinned %016x", load.predCheck(), w.predCheck)
	}
}

// live runs the live leg: setup_s over cold starts, then one open-loop
// rung against the last server started, scored by goodput.
func (r *report) live(ctx context.Context, e env, w workload, in *inputs, preds [][]float32, seed uint64, measure time.Duration) error {
	// Collect the replay's garbage now, not inside a measured rung.
	runtime.GC()
	models, err := writeModels(w, e.tmp)
	if err != nil {
		return err
	}
	var setups []float64
	var srv *server
	for i := 0; i < setupStarts; i++ {
		s, took, err := startServer(ctx, e.rmserve, models, w.hostBudget)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		if i < setupStarts-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	client := newLoadClient(loadConns)
	defer client.CloseIdleConnections()

	st := r.rung(ctx, srv.url, client, w, in, preds, e.warmUp, measure, rand.New(rand.NewPCG(seed, 1)), nil)
	rss, err := peakRSS(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	r.set("goodput_rps", float64(st.good)/st.seconds, st.n,
		fmt.Sprintf("requests, open loop at %.0f req/s, within %v (generator late p99 %.2f ms)", w.liveRate, w.slo, ms(st.lateP99)))
	r.set("setup_s", median(setups), len(setups), "cold starts, exec to first /info")
	r.set("peak_rss_mb", rss, 1, "rmserve VmHWM after the live leg")
	return nil
}

// rung runs one open-loop rung of warm plus measure at the workload's live
// rate and scores it; during the measured window, probe (if set) runs
// alongside. Latency statistics cover the primary model's requests only:
// in a mix, the all-request median would fall in the gap between fast and
// slow models.
func (r *report) rung(ctx context.Context, url string, client *http.Client, w workload, in *inputs, preds [][]float32,
	warm, measure time.Duration, rng *rand.Rand, probe func(windowStart time.Time)) rung {
	primary := w.models[0].Name
	next := 0
	shots := append(poissonShots(in.bodies, w.liveRate, 0, warm, rng, &next),
		poissonShots(in.bodies, w.liveRate, warm, warm+measure, rng, &next)...)
	start := time.Now().Add(20 * time.Millisecond) //lint:allow wallclock open-loop sends are scheduled in wall time
	done := make(chan struct{})
	if probe != nil {
		go func() {
			defer close(done)
			probe(start.Add(warm))
		}()
	} else {
		close(done)
	}
	outs := openLoop(ctx, client, url+"/infer", shots, start, loadConns)
	<-done
	st, errs := summarize(shots, outs, warm, measure, w.slo, func(sh shot, o outcome) error {
		want := preds[sh.req]
		if len(o.preds) != len(want) {
			return fmt.Errorf("%d predictions, want %d", len(o.preds), len(want))
		}
		if !sameBits(o.preds, want) {
			return fmt.Errorf("predictions %v, replay gave %v", o.preds, want)
		}
		return nil
	}, func(sh shot) bool { return in.reqs[sh.req].Model == primary })
	r.attempted += int64(len(shots))
	r.failed += int64(st.failed)
	for i, err := range errs {
		if i == maxReported {
			r.problem("live: %d more wrong replies", len(errs)-i)
			break
		}
		r.problem("live: %v", err)
	}
	return st
}

// traced measures the per-layer ledger: the replay legs once more with the
// obs tracer and an in-process CPU profile, then the live rung against a
// server with -metrics and -pprof.
func (r *report) traced(ctx context.Context, e env, w workload, in *inputs, seed uint64, measure time.Duration, sat, load leg) error {
	cpuPath := filepath.Join(e.tmp, w.name+".replay.pprof")
	f, err := os.Create(cpuPath)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	cpu0, err := procCPU(os.Getpid())
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	satTr, loadTr := rmssd.NewObsTracer(rmssd.NewObsRegistry()), rmssd.NewObsTracer(rmssd.NewObsRegistry())
	tf, tsat, tload, err := replayLegs(w, in, seed, satTr, loadTr)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	cpu1, err := procCPU(os.Getpid())
	if err != nil {
		return err
	}
	r.checkReplay(w, in, seed, tsat, tload)
	if a, b := simsOf(w, sat, load), simsOf(w, tsat, tload); a != b {
		r.problem("replay: traced sim metrics %+v differ from untraced %+v", b, a)
	}
	shares, err := profileShares(ctx, cpuPath, "serving.replay")
	if err != nil {
		return err
	}
	r.setReplayLayers(tf, sat, load, tsat, tload, loadTr, shares, cpu1-cpu0)
	return r.liveTraced(ctx, e, w, in, tload.preds, seed, measure)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs; it sorts xs.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// sameBits reports whether two prediction slices are bit-identical.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// ratio returns a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
