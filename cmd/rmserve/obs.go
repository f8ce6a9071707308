package main

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"rmssd/internal/obs"
	"rmssd/internal/params"
)

// Observability surface: the /metrics endpoint (Prometheus text format),
// optional pprof handlers, and the replay tracer wiring (-trace-out plus
// the per-stage cycle-breakdown table). Everything is off by default;
// disabled, the server and replay reports are byte-identical to a build
// without this file.

// enableMetrics creates the server's registry and installs a span sink on
// every shard device, so served batches stream their stage timings and
// counter deltas into live metrics. Call before serving traffic.
func (s *server) enableMetrics() {
	s.metrics = obs.NewRegistry()
	for _, m := range s.models {
		for _, sh := range m.shards {
			model, shard := m.decl.Name, sh.id
			if a := sh.array(); a != nil {
				// Array shards record one span per member device, labeled by
				// member index, so the flamegraph shows the scatter/gather.
				for di, dev := range a.Devices() {
					dev.SetSpanSink(func(sp obs.DeviceSpan) {
						obs.RecordMemberSpan(s.metrics, model, shard, di, sp)
					})
				}
				continue
			}
			sh.members()[0].SetSpanSink(func(sp obs.DeviceSpan) {
				obs.RecordDeviceSpan(s.metrics, model, shard, sp)
			})
		}
	}
}

// handleMetrics renders the registry in Prometheus text exposition format.
// Pool/router/locality counters owned by the serving layer are mirrored in
// at scrape time under the rmssd_model_* namespace (distinct from the
// span-driven families, which only ever Add), so one scrape shows both.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.metrics == nil {
		http.Error(w, "metrics disabled (start rmserve with -metrics)", http.StatusNotFound)
		return
	}
	s.collectModelMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.WritePrometheus(w); err != nil {
		// The response is already partially written; nothing to do but note it.
		return
	}
}

// collectModelMetrics mirrors the serving layer's cumulative counters into
// scrape-time gauges-as-counters (Counter.Set: the sources are themselves
// monotonic).
func (s *server) collectModelMetrics() {
	for _, m := range s.models {
		st, err := s.reg.ModelStats(m.decl.Name)
		if err != nil {
			continue
		}
		lk, ev, _ := m.localityStats()
		var fl FlashTotals
		for _, sh := range m.shards {
			fs, inf, _ := sh.snapshot()
			fl.add(fs.VectorReads, fs.PageReads, fs.BytesTransferred,
				fs.ReadFaults, fs.ECCRetries, fs.Uncorrectable, inf)
		}
		label := obs.L("model", m.decl.Name)
		for _, c := range []struct {
			name string
			v    int64
		}{
			{"rmssd_model_submitted_total", st.Submitted},
			{"rmssd_model_rejected_total", st.Rejected},
			{"rmssd_model_failed_total", st.Failed},
			{"rmssd_model_waited_total", st.Waited},
			{"rmssd_model_requests_total", st.Pool.Requests},
			{"rmssd_model_inferences_total", st.Pool.Inferences},
			{"rmssd_model_device_batches_total", st.Pool.Batches},
			{"rmssd_model_shard_faults_total", st.Pool.Faults},
			{"rmssd_model_lookups_total", lk.Lookups},
			{"rmssd_model_dedup_hits_total", lk.DedupHits},
			{"rmssd_model_evcache_hits_total", ev.Hits},
			{"rmssd_model_evcache_misses_total", ev.Misses},
			{"rmssd_model_evcache_evictions_total", ev.Evictions},
			{"rmssd_model_flash_vector_reads_total", fl.vectorReads},
			{"rmssd_model_flash_page_reads_total", fl.pageReads},
			{"rmssd_model_flash_bytes_transferred_total", fl.bytes},
			{"rmssd_model_flash_read_faults_total", fl.readFaults},
			{"rmssd_model_flash_ecc_retries_total", fl.eccRetries},
			{"rmssd_model_flash_uncorrectable_total", fl.uncorrectable},
			{"rmssd_model_device_inferences_total", fl.inferences},
		} {
			s.metrics.Counter(c.name, label).Set(c.v)
		}
	}
}

// FlashTotals accumulates per-shard flash snapshots for one model.
type FlashTotals struct {
	vectorReads, pageReads, bytes         int64
	readFaults, eccRetries, uncorrectable int64
	inferences                            int64
}

func (f *FlashTotals) add(vr, pr, b, rf, er, un, inf int64) {
	f.vectorReads += vr
	f.pageReads += pr
	f.bytes += b
	f.readFaults += rf
	f.eccRetries += er
	f.uncorrectable += un
	f.inferences += inf
}

// mountPprof registers the net/http/pprof handlers on the mux. Gated
// behind -pprof: profiling endpoints expose host internals and cost cycles
// when scraped, so they are opt-in.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// installReplaySinks points every shard device of the hosted models at the
// tracer, keyed (model name, shard index) — the same key the replay's
// EndBatch uses, so device spans join their batch records.
func (s *server) installReplaySinks(t *obs.Tracer) {
	for _, m := range s.models {
		for _, sh := range m.shards {
			if a := sh.array(); a != nil {
				// One sink per member; the array emits the top member's span
				// last, which the tracer keeps as the batch's device span.
				for di, dev := range a.Devices() {
					dev.SetSpanSink(t.ArrayDeviceSink(m.decl.Name, sh.id, di))
				}
				continue
			}
			sh.members()[0].SetSpanSink(t.DeviceSink(m.decl.Name, sh.id))
		}
	}
}

// formatStages appends the model's per-stage cycle-breakdown table. Only
// traced replays print it, so untraced reports stay byte-identical.
func formatStages(sb *strings.Builder, t *obs.Tracer, model string) {
	bd := t.Breakdown(model)
	if bd.Batches == 0 {
		return
	}
	busy := bd.Send + bd.Emb + bd.Bot + bd.Top + bd.Read
	fmt.Fprintf(sb, "stages:       %d batches traced, %d requests (%d failed); queue wait %v total\n",
		bd.Batches, bd.Requests, bd.Failed, bd.Queue)
	row := func(name string, d time.Duration) {
		var share float64
		if busy > 0 {
			share = 100 * float64(d) / float64(busy)
		}
		fmt.Fprintf(sb, "  %-5s %14v %12d cycles %5.1f%%\n", name, d, int64(d/params.CycleTime), share)
	}
	row("send", bd.Send)
	row("emb", bd.Emb)
	row("bot", bd.Bot)
	row("top", bd.Top)
	row("read", bd.Read)
}

// writeTraceFile emits the tracer's records as JSONL ("-" for stdout).
func writeTraceFile(t *obs.Tracer, path string) error {
	if path == "-" {
		return t.WriteJSONL(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("rmserve: trace out: %w", err)
	}
	if err := t.WriteJSONL(f); err != nil {
		//lint:allow errcheck the write error is what matters
		f.Close()
		return err
	}
	return f.Close()
}
