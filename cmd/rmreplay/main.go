// Command rmreplay streams a recommendation trace at a running rmserve
// instance over HTTP and reports end-to-end serving statistics: simulated
// and wall-clock latency percentiles, coalescing behaviour and per-shard
// balance. It is the client half of trace-driven serving — the server never
// invents an input; every index the device serves arrives in a request
// body, like the paper's RM_send_inputs path.
//
//	rmserve -model RMC1 -table-mb 64 -shards 4 &
//	rmtrace -criteo-out trace.tsv -inferences 20000
//	rmreplay -addr http://127.0.0.1:8080 -criteo-in trace.tsv -requests 1000 -concurrency 8
//
// Without -criteo-in, rmreplay synthesises requests from the paper's
// locality model (the same generator rmserve uses for count-only requests).
//
// Against a multi-model server (rmserve -models config.json), -model NAME
// addresses one hosted model: the client fetches that model's shape from
// /models and tags every request body with the model name.
//
// Wall-clock numbers measure the host HTTP path and vary run to run; the
// simulated numbers come from the device model. For a fully deterministic
// in-process replay, use `rmserve -trace` instead.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"rmssd/internal/obs"
	"rmssd/internal/serving"
	"rmssd/internal/trace"
	"rmssd/internal/wire"
)

// sample is one request's measured outcome.
type sample struct {
	sim       time.Duration // server-simulated latency
	wall      time.Duration // host round-trip time
	shard     int
	coalesced int // requests on the same device batch
	preds     int
}

func main() {
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8080", "rmserve base URL")
		criteoIn    = flag.String("criteo-in", "", "Criteo-format TSV trace (default: synthetic)")
		requests    = flag.Int("requests", 500, "requests to send (criteo stops early at EOF)")
		reqBatch    = flag.Int("req-batch", 1, "inferences per request")
		rate        = flag.Float64("rate", 0, "open-loop send rate in requests/second (0 = closed loop)")
		concurrency = flag.Int("concurrency", 4, "in-flight request cap")
		seed        = flag.Uint64("seed", 1, "synthetic trace seed")
		model       = flag.String("model", "", "hosted model to address on a multi-model server (default: server's default)")
		metricsOn   = flag.Bool("metrics", false, "after the report, fetch and print the server's /metrics exposition (server must run with -metrics)")
	)
	flag.Parse()
	if err := run(*addr, *model, *criteoIn, *requests, *reqBatch, *rate, *concurrency, *seed, *metricsOn, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rmreplay:", err)
		os.Exit(1)
	}
}

func run(addr, model, criteoIn string, requests, reqBatch int, rate float64, concurrency int, seed uint64, metricsOn bool, w io.Writer) error {
	if requests <= 0 || reqBatch <= 0 || concurrency <= 0 {
		return fmt.Errorf("need positive -requests, -req-batch and -concurrency")
	}
	inf, err := fetchInfo(addr, model)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "target: %s model=%s shards=%d device-batch=%d (%d tables x %d lookups, %d rows/table)\n",
		addr, inf.Model, inf.Shards, inf.DeviceBatch, inf.Tables, inf.Lookups, inf.RowsPerTable); err != nil {
		return err
	}

	src, closer, err := serving.NewSource(trace.Config{
		Tables: inf.Tables, Rows: inf.RowsPerTable, Lookups: inf.Lookups, Seed: seed,
	}, inf.DenseDim, reqBatch, criteoIn)
	if err != nil {
		return err
	}
	if closer != nil {
		defer closer.Close()
	}

	// Draw the whole request stream up front so the send loop measures the
	// HTTP path, not TSV parsing.
	bodies := make([][]byte, 0, requests)
	for len(bodies) < requests {
		req, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("trace source: %w", err)
		}
		b, err := json.Marshal(wire.InferRequest{Model: model, Sparse: req.Sparse, Dense: req.Dense})
		if err != nil {
			return err
		}
		bodies = append(bodies, b)
	}
	if len(bodies) == 0 {
		return fmt.Errorf("trace yielded no requests")
	}

	samples := make([]sample, len(bodies))
	errs := make(chan error, len(bodies))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				s, err := send(addr, bodies[i])
				if err != nil {
					errs <- fmt.Errorf("request %d: %w", i, err)
					continue
				}
				samples[i] = s
			}
		}()
	}
	//lint:allow wallclock host-side load client measures real elapsed time
	start := time.Now()
	for i := range bodies {
		if rate > 0 {
			// Open loop: request i is due at start + i/rate.
			due := start.Add(time.Duration(float64(i) / rate * 1e9))
			//lint:allow wallclock host-side load client paces real sends
			if d := time.Until(due); d > 0 {
				//lint:allow wallclock host-side load client paces real sends
				time.Sleep(d)
			}
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	//lint:allow wallclock host-side load client measures real elapsed time
	elapsed := time.Since(start)
	close(errs)
	nerr := 0
	var firstErrs []string
	for err := range errs {
		nerr++
		if nerr <= 5 {
			firstErrs = append(firstErrs, err.Error())
		}
	}
	if nerr > 0 {
		return fmt.Errorf("%d of %d requests failed; first errors:\n  %s",
			nerr, len(bodies), strings.Join(firstErrs, "\n  "))
	}

	out := report(samples, inf.Shards, elapsed) + fetchStats(addr, model)
	if metricsOn {
		out += fetchMetrics(addr)
	}
	_, err = io.WriteString(w, out)
	return err
}

// fetchInfo resolves the target model's shape: the server's default model
// via /info, or — when -model names a hosted model — its /models entry.
func fetchInfo(addr, model string) (wire.ModelInfo, error) {
	if model == "" {
		var inf wire.Info
		if err := getJSON(addr+"/info", &inf); err != nil {
			return wire.ModelInfo{}, fmt.Errorf("/info: %w", err)
		}
		return checkInfo(inf.ModelInfo)
	}
	e, err := fetchEntry(addr, model)
	if err != nil {
		return wire.ModelInfo{}, err
	}
	return checkInfo(e.ModelInfo)
}

// fetchEntry returns the named model's /models entry.
func fetchEntry(addr, model string) (wire.ModelEntry, error) {
	var body wire.Models
	if err := getJSON(addr+"/models", &body); err != nil {
		return wire.ModelEntry{}, fmt.Errorf("/models: %w", err)
	}
	names := make([]string, len(body.Models))
	for i, e := range body.Models {
		if e.Name == model {
			return e, nil
		}
		names[i] = e.Name
	}
	return wire.ModelEntry{}, fmt.Errorf("server does not host model %q (hosts: %s)", model, strings.Join(names, ", "))
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(url string, v interface{}) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// checkInfo rejects shapes the trace sources cannot feed.
func checkInfo(inf wire.ModelInfo) (wire.ModelInfo, error) {
	if inf.Tables <= 0 || inf.Lookups <= 0 || inf.RowsPerTable <= 0 || inf.DenseDim <= 0 {
		return wire.ModelInfo{}, fmt.Errorf("server reported an unusable shape: %+v", inf)
	}
	return inf, nil
}

// send posts one request body and measures the round trip.
func send(addr string, body []byte) (sample, error) {
	//lint:allow wallclock host-side load client measures round-trip time
	t0 := time.Now()
	resp, err := http.Post(addr+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		return sample{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e wire.ErrorReply
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			return sample{}, fmt.Errorf("status %d: decode: %w", resp.StatusCode, err)
		}
		return sample{}, fmt.Errorf("status %d: %s", resp.StatusCode, e.Error)
	}
	var rep wire.InferReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return sample{}, fmt.Errorf("decode: %w", err)
	}
	//lint:allow wallclock host-side load client measures round-trip time
	wall := time.Since(t0)
	sim, err := time.ParseDuration(rep.SimulatedLatency)
	if err != nil {
		return sample{}, fmt.Errorf("simulatedLatency %q: %w", rep.SimulatedLatency, err)
	}
	return sample{sim: sim, wall: wall, shard: rep.Shard,
		coalesced: rep.CoalescedRequests, preds: len(rep.Predictions)}, nil
}

// report renders percentile and balance statistics over the samples.
func report(samples []sample, shards int, elapsed time.Duration) string {
	sims := make([]time.Duration, len(samples))
	walls := make([]time.Duration, len(samples))
	perShard := make([]int, shards)
	var coalescedSum, preds int
	for i, s := range samples {
		sims[i], walls[i] = s.sim, s.wall
		if s.shard >= 0 && s.shard < shards {
			perShard[s.shard]++
		}
		coalescedSum += s.coalesced
		preds += s.preds
	}
	p50s, p95s, p99s, maxs := obs.Quantiles(sims)
	p50w, p95w, p99w, maxw := obs.Quantiles(walls)
	var sb strings.Builder
	fmt.Fprintf(&sb, "served:       %d requests, %d predictions in %v wall (%.0f req/s)\n",
		len(samples), preds, elapsed.Round(time.Millisecond),
		float64(len(samples))/elapsed.Seconds())
	fmt.Fprintf(&sb, "sim latency:  p50=%v p95=%v p99=%v max=%v\n", p50s, p95s, p99s, maxs)
	fmt.Fprintf(&sb, "wall latency: p50=%v p95=%v p99=%v max=%v\n",
		p50w.Round(time.Microsecond), p95w.Round(time.Microsecond),
		p99w.Round(time.Microsecond), maxw.Round(time.Microsecond))
	fmt.Fprintf(&sb, "coalescing:   %.2f requests/batch (client-observed mean)\n",
		float64(coalescedSum)/float64(len(samples)))
	fmt.Fprintf(&sb, "per shard:    ")
	for i, n := range perShard {
		if i > 0 {
			fmt.Fprint(&sb, " ")
		}
		fmt.Fprintf(&sb, "%d", n)
	}
	fmt.Fprintf(&sb, " (requests)\n")
	return sb.String()
}

// fetchStats renders the server's own view of the addressed model,
// best-effort: an unreachable or unparseable endpoint yields an empty
// string. /stats sums every hosted model, so a named model's counters come
// from its /models entry.
func fetchStats(addr, model string) string {
	const line = "server:       %d requests, %d inferences, %d device batches (%.2f inferences/batch)\n"
	if model != "" {
		e, err := fetchEntry(addr, model)
		if err != nil {
			return ""
		}
		return fmt.Sprintf(line, e.Requests, e.Inferences, e.DeviceBatches, e.MeanBatch)
	}
	var st wire.Stats
	if err := getJSON(addr+"/stats", &st); err != nil {
		return ""
	}
	return fmt.Sprintf(line, st.Requests, st.Inferences, st.DeviceBatches, st.MeanBatch)
}

// fetchMetrics pulls the server's Prometheus exposition, best-effort: an
// unreachable endpoint yields an empty string, a non-200 (rmserve without
// -metrics answers 404) a one-line note.
func fetchMetrics(addr string) string {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return ""
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Sprintf("metrics:      unavailable (%s)\n", strings.TrimSpace(string(body)))
	}
	return "-- /metrics --\n" + string(body)
}
