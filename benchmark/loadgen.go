package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"syscall"
	"time"
)

// loadConns is the number of keep-alive connections (and sending workers)
// the open-loop generator uses: one per CPU of the reference host, so the
// generator never runs more threads or connections than there are CPUs.
const loadConns = 2

// shot is one scheduled request of an open-loop rung.
type shot struct {
	due  time.Duration // offset of the send time from the rung start
	req  int           // index of the request among the workload's inputs
	body []byte
}

// outcome is what became of one shot. Latency runs from the shot's due
// time, not from when it was sent: a request that waited for a free
// connection behind a stalled one carries that wait.
type outcome struct {
	late    time.Duration // dispatch time minus due time (generator lateness)
	latency time.Duration // completion time minus due time
	status  int
	preds   []float32
	err     error
}

// poissonShots schedules round(rate*(to-from)) shots at independent
// uniform times in [from, to): a Poisson process of the given rate
// conditioned on its count, so every seed offers exactly the same load.
// Shots cycle through the workload's requests from *next on.
func poissonShots(bodies [][]byte, rate float64, from, to time.Duration, rng *rand.Rand, next *int) []shot {
	dues := make([]time.Duration, int(math.Round(rate*(to-from).Seconds())))
	for i := range dues {
		dues[i] = from + time.Duration(rng.Int64N(int64(to-from)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	shots := make([]shot, len(dues))
	for i, due := range dues {
		k := *next % len(bodies)
		*next++
		shots[i] = shot{due: due, req: k, body: bodies[k]}
	}
	return shots
}

// newLoadClient returns an HTTP client holding at most conns connections.
func newLoadClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// sleepUntil blocks until t. The runtime's timers wake up to a millisecond
// late, which would be charged to every request as latency; nanosleep wakes
// within tens of microseconds.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t) //lint:allow wallclock open-loop sends are scheduled in wall time
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR (the runtime's preemption signal) just loops.
		if err := syscall.Nanosleep(&ts, nil); err != nil && !errors.Is(err, syscall.EINTR) {
			return
		}
	}
}

// openLoop sends every shot at start+due, whether or not earlier requests
// have been answered, through conns workers sharing client. It returns one
// outcome per shot once all have completed.
func openLoop(ctx context.Context, client *http.Client, url string, shots []shot, start time.Time, conns int) []outcome {
	out := make([]outcome, len(shots))
	jobs := make(chan int, len(shots))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				send(ctx, client, url, shots[i], start, &out[i])
			}
		}()
	}
	for i, sh := range shots {
		if ctx.Err() != nil {
			break
		}
		due := start.Add(sh.due)
		sleepUntil(due)
		out[i].late = time.Since(due) //lint:allow wallclock generator lateness is a benchmark metric
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i := range out {
		if out[i].status == 0 && out[i].err == nil {
			out[i].err = ctx.Err() // never dispatched
		}
	}
	return out
}

// send posts one shot and records its outcome.
func send(ctx context.Context, client *http.Client, url string, sh shot, start time.Time, o *outcome) {
	defer func() {
		o.latency = time.Since(start.Add(sh.due)) //lint:allow wallclock request latency is a benchmark metric
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(sh.body))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		o.err = err
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	o.status = resp.StatusCode
	if err != nil {
		o.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	var reply struct {
		Predictions []float32 `json:"predictions"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		o.err = err
		return
	}
	o.preds = reply.Predictions
}

// rung summarises one open-loop rung.
type rung struct {
	n        int // measured shots timed for the latency statistics
	p50, p99 time.Duration
	lateP99  time.Duration
	good     int     // measured shots answered correctly within the SLO
	failed   int     // shots (warm-up included) that failed or were wrong
	seconds  float64 // the measured window, until its last reply
}

// summarize scores a rung: check decides whether a reply is correct and
// every shot counts toward failed. The shots due at or after warm are
// measured: all of them count toward goodput, and those timed selects make
// the latency statistics, where a failed or wrong reply misses the SLO and
// ranks slower than every answered request. The measured window runs from
// warm to the last measured reply (to the end of the schedule if none).
func summarize(shots []shot, outs []outcome, warm, measure, slo time.Duration,
	check func(shot, outcome) error, timed func(shot) bool) (rung, []error) {
	var r rung
	var lastReply time.Duration
	var lat, late []time.Duration
	var errs []error
	for i, sh := range shots {
		o := outs[i]
		err := o.err
		if err == nil {
			err = check(sh, o)
		}
		if err != nil {
			r.failed++
			errs = append(errs, fmt.Errorf("request %d due %v: %w", sh.req, sh.due, err))
		}
		if sh.due < warm {
			continue
		}
		l := o.latency
		if err != nil {
			l = math.MaxInt64
		} else {
			lastReply = max(lastReply, sh.due+l)
			if l <= slo {
				r.good++
			}
		}
		late = append(late, o.late)
		if timed(sh) {
			lat = append(lat, l)
		}
	}
	r.n = len(lat)
	end := warm + measure
	if lastReply > warm {
		end = lastReply
	}
	r.seconds = (end - warm).Seconds()
	r.p50, r.p99 = quantile(lat, 0.50), quantile(lat, 0.99)
	r.lateP99 = quantile(late, 0.99)
	return r, errs
}

// quantile is the nearest-rank q-quantile; it sorts xs.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(k, 0)]
}
