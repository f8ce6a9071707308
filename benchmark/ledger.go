package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"rmssd"
)

// spanTotals aggregates a traced replay's batch records: simulated stage
// time, per-request queue waits, and the device counter deltas the spans
// carry (summed over array members).
type spanTotals struct {
	send, emb, bot, top, read time.Duration
	queue                     []time.Duration

	lookups, dedupHits, hits, misses, evictions int64
	vectorReads, pageReads, eccRetries          int64
	channelReads                                []int64 // by channel index, over all devices
}

func totals(tr *rmssd.ObsTracer) spanTotals {
	var t spanTotals
	for _, rec := range tr.Records() {
		for _, rq := range rec.Requests {
			t.queue = append(t.queue, rec.Start-rq.Arrival)
		}
		if rec.Device == nil {
			continue
		}
		// An array record's Device is the top member's span, covering the
		// batch end to end; the counters live on every member.
		d := rec.Device
		t.send += d.Send.Len()
		t.emb += d.Emb.Len()
		t.bot += d.Bot.Len()
		t.top += d.Top.Len()
		t.read += d.Read.Len()
		spans := []rmssd.DeviceSpan{*d}
		if len(rec.Array) > 0 {
			spans = spans[:0]
			for _, m := range rec.Array {
				spans = append(spans, m.DeviceSpan)
			}
		}
		for _, sp := range spans {
			t.lookups += sp.Lookups
			t.dedupHits += sp.DedupHits
			t.hits += sp.CacheHits
			t.misses += sp.CacheMisses
			t.evictions += sp.CacheEvictions
			t.vectorReads += sp.VectorReads
			t.pageReads += sp.PageReads
			t.eccRetries += sp.ECCRetries
			for _, ch := range sp.Channels {
				for len(t.channelReads) <= ch.Channel {
					t.channelReads = append(t.channelReads, 0)
				}
				t.channelReads[ch.Channel] += ch.Reads
			}
		}
	}
	return t
}

// imbalance is max over mean of xs (1 = perfectly even, 0 = no work).
func imbalance(xs []int64) float64 {
	var sum, top int64
	for _, x := range xs {
		sum += x
		top = max(top, x)
	}
	return ratio(float64(top)*float64(len(xs)), float64(sum))
}

// setReplayLayers derives the replay side of the ledger. sat and load are
// the untraced legs, tsat and tload the traced ones replayed through tf
// (loadTr traced tload), shares the traced legs' CPU profile by layer and
// cpu the process CPU they used.
func (r *report) setReplayLayers(tf *fleet, sat, load, tsat, tload leg, loadTr *rmssd.ObsTracer, shares map[string]float64, cpu time.Duration) {
	inf := tsat.res.Inferences + tload.res.Inferences
	const legs = "inferences of both traced replay legs"
	wall, inferWall := tsat.wall+tload.wall, tsat.inferWall+tload.inferWall
	r.set("serving.replay.self_us_per_inf", us(wall-inferWall)/float64(inf), inf, legs+": Replay wall minus InferBatch wall")
	r.set("core.infer_us_per_inf", us(inferWall)/float64(inf), inf, legs+": InferBatch wall")
	for _, l := range cpuLayers {
		r.set(l+".replay_cpu_us", shares[l]*us(cpu)/float64(inf), inf, fmt.Sprintf("%s: %.1f%% of %v CPU", legs, 100*shares[l], cpu))
	}
	untraced := sat.wall + load.wall
	r.set("obs.trace_overhead_pct", 100*(wall-untraced).Seconds()/untraced.Seconds(), 2, "replay leg pairs, traced vs untraced wall")
	uinf := sat.res.Inferences + load.res.Inferences
	r.set("serving.replay.infer_per_s", float64(uinf)/untraced.Seconds(), uinf, "inferences of both untraced legs per wall second inside MultiReplay")
	r.set("core.allocs_per_inf", float64(sat.mallocs+load.mallocs)/float64(uinf), uinf,
		"inferences of both untraced legs, heap allocations inside Replay")
	r.set("serving.replay.qps_vs_analytic", ratio(tsat.simQPS(), tf.analyticQPS), tsat.res.Inferences,
		fmt.Sprintf("inferences, sim_qps over analytic %.0f inf/s", tf.analyticQPS))

	// Simulated-clock and counter numbers come from the loaded leg, where
	// queueing is what a served request sees.
	t := totals(loadTr)
	linf := float64(tload.res.Inferences)
	n := len(t.queue)
	const loaded = "of the loaded traced leg"
	r.set("serving.replay.queue_mean_ms", ms(meanDur(t.queue)), n, "requests "+loaded+": arrival to service start")
	r.set("serving.replay.queue_p99_ms", ms(quantile(t.queue, 0.99)), n, "requests "+loaded+": arrival to service start")
	r.set("serving.replay.reqs_per_batch", ratio(float64(tload.res.Requests), float64(tload.res.Batches)), tload.res.Batches, "batches "+loaded)
	busy := float64(t.send + t.emb + t.bot + t.top + t.read)
	nb := tload.res.Batches
	r.set("core.send_share", float64(t.send)/busy, nb, "batches "+loaded+": share of simulated stage time")
	r.set("core.read_share", float64(t.read)/busy, nb, "batches "+loaded+": share of simulated stage time")
	r.set("engine.mlp.bot_share", float64(t.bot)/busy, nb, "batches "+loaded+": share of simulated stage time")
	r.set("engine.mlp.top_share", float64(t.top)/busy, nb, "batches "+loaded+": share of simulated stage time")
	r.set("engine.lookup.emb_ms", ms(t.emb)/float64(nb), nb, "batches "+loaded+": mean simulated emb stage")
	ni := tload.res.Inferences
	r.set("engine.lookup.lookups_per_inf", float64(t.lookups)/linf, ni, "inferences "+loaded)
	r.set("engine.lookup.dedup_ratio", ratio(float64(t.dedupHits), float64(t.lookups)), int(t.lookups), "lookups "+loaded)
	r.set("evcache.hit_ratio", ratio(float64(t.hits), float64(t.hits+t.misses)), int(t.hits+t.misses), "cache probes "+loaded+" (0: no cache)")
	r.set("evcache.evictions_per_klookup", 1000*ratio(float64(t.evictions), float64(t.lookups)), int(t.lookups), "lookups "+loaded)
	r.set("flash.vector_reads_per_inf", float64(t.vectorReads)/linf, ni, "inferences "+loaded)
	r.set("flash.page_reads_per_inf", float64(t.pageReads)/linf, ni, "inferences "+loaded)
	r.set("flash.ecc_retries_per_kread", 1000*ratio(float64(t.eccRetries), float64(t.vectorReads)), int(t.vectorReads), "vector reads "+loaded)
	r.set("flash.channel_imbalance", imbalance(t.channelReads), len(t.channelReads), "channels "+loaded+": max/mean reads")

	var scattered []int64
	var transferBytes, batches int64
	for _, a := range tf.arrays {
		st := a.Stats()
		for d, n := range st.Scattered {
			for len(scattered) <= d {
				scattered = append(scattered, 0)
			}
			scattered[d] += n
		}
		transferBytes += st.TransferBytes
		batches += st.Batches
	}
	r.set("array.scatter_imbalance", imbalance(scattered), len(scattered), "members, both traced legs: max/mean lookups (0: no array)")
	r.set("array.transfer_bytes_per_batch", ratio(float64(transferBytes), float64(batches)), int(batches), "array batches, both traced legs (0: no array)")
}

// meanDur is the mean of ds (0 when empty).
func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// liveTraced runs the live side of the ledger: the live rung against a
// server started with -metrics and -pprof, with rmserve's CPU profile and
// CPU time taken over exactly the measured window.
func (r *report) liveTraced(ctx context.Context, e env, w workload, in *inputs, preds [][]float32, seed uint64, measure time.Duration) error {
	models, err := writeModels(w, e.tmp)
	if err != nil {
		return err
	}
	srv, _, err := startServer(ctx, e.rmserve, models, w.hostBudget, "-metrics", "-pprof")
	if err != nil {
		return err
	}
	defer srv.stop()
	client := newLoadClient(loadConns)
	defer client.CloseIdleConnections()
	ctl := &http.Client{Timeout: measure + time.Minute}
	defer ctl.CloseIdleConnections()
	pid := srv.cmd.Process.Pid
	profPath := filepath.Join(e.tmp, w.name+".serve.pprof")

	var (
		cpu0, cpu1 time.Duration
		st0, st1   serverStats
		probeErr   error
	)
	probe := func(windowStart time.Time) {
		sleepUntil(windowStart)
		if cpu0, probeErr = procCPU(pid); probeErr != nil {
			return
		}
		if probeErr = getJSON(ctx, ctl, srv.url+"/stats", &st0); probeErr != nil {
			return
		}
		url := fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", srv.url, int(measure.Seconds()))
		code, body, err := get(ctx, ctl, url)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET %s: status %d", url, code)
		}
		if probeErr = err; err != nil {
			return
		}
		if cpu1, probeErr = procCPU(pid); probeErr != nil {
			return
		}
		if probeErr = getJSON(ctx, ctl, srv.url+"/stats", &st1); probeErr != nil {
			return
		}
		probeErr = os.WriteFile(profPath, body, 0o644)
	}
	st := r.rung(ctx, srv.url, client, w, in, preds, e.warmUp, measure, rand.New(rand.NewPCG(seed, 1)), probe)
	if probeErr != nil {
		return fmt.Errorf("profiling rmserve: %w", probeErr)
	}
	shares, err := profileShares(ctx, profPath, "rmserve")
	if err != nil {
		return err
	}

	var final serverStats
	var mst modelsStats
	if err := getJSON(ctx, ctl, srv.url+"/stats", &final); err != nil {
		return err
	}
	if err := getJSON(ctx, ctl, srv.url+"/models", &mst); err != nil {
		return err
	}
	code, text, err := get(ctx, ctl, srv.url+"/metrics")
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d: %v", code, err)
	}
	spanLookups, err := sumMetric(text, "rmssd_device_lookups_total")
	if err != nil {
		return err
	}
	if spanLookups != final.Lookups {
		r.problem("live: /metrics counts %d lookups, /stats %d", spanLookups, final.Lookups)
	}

	reqs := st1.Requests - st0.Requests
	cpu := cpu1 - cpu0
	window := fmt.Sprintf("requests in the %v profiled window", measure)
	r.set("loadgen.late_p99_ms", ms(st.lateP99), st.n, "requests of the live rung: dispatch minus due time")
	r.set("loadgen.wall_p50_ms", ms(st.p50), st.n, fmt.Sprintf("%s requests at %.0f req/s, from due time", w.models[0].Name, w.liveRate))
	r.set("loadgen.wall_p99_ms", ms(st.p99), st.n, fmt.Sprintf("%s requests at %.0f req/s, from due time", w.models[0].Name, w.liveRate))
	r.set("rmserve.cpu_ms_per_req", ms(cpu)/float64(reqs), int(reqs), fmt.Sprintf("%s, %v rmserve CPU", window, cpu))
	var body int
	for _, b := range in.bodies {
		body += len(b)
	}
	r.set("rmserve.req_bytes", float64(body)/float64(len(in.bodies)), len(in.bodies), "generated requests: mean /infer body")
	for _, l := range append([]string{"rmserve", "serving.pool"}, cpuLayers...) {
		r.set(l+".serve_cpu_us", shares[l]*us(cpu)/float64(reqs), int(reqs), fmt.Sprintf("%s: %.1f%% of rmserve CPU", window, 100*shares[l]))
	}
	var waited, submitted int64
	for _, m := range mst.Models {
		waited += m.Waited
		submitted += m.Submitted
	}
	r.set("serving.router.waited_ratio", ratio(float64(waited), float64(submitted)), int(submitted), "requests: share that queued for the host budget")
	r.set("serving.pool.reqs_per_batch", ratio(float64(final.Requests), float64(final.DeviceBatches)), int(final.DeviceBatches), "device batches served live")
	r.set("serving.pool.infer_per_batch", ratio(float64(final.Inferences), float64(final.DeviceBatches)), int(final.DeviceBatches), "device batches served live")
	return nil
}
