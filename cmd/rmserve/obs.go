package main

import (
	"fmt"
	"log"
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
			// Array shards record one span per member device, labeled by
			// member index, so the flamegraph shows the scatter/gather.
			sh.setSpanSinks(func(sp obs.DeviceSpan) {
				obs.RecordDeviceSpan(s.metrics, model, shard, sp)
			}, func(di int) obs.SpanSink {
				return func(sp obs.DeviceSpan) { obs.RecordMemberSpan(s.metrics, model, shard, di, sp) }
			})
		}
	}
}

// handleMetrics renders the registry in Prometheus text exposition format.
// Each model's snapshot is mirrored in at scrape time under the
// rmssd_model_* namespace (distinct from the span-driven families, which
// only ever Add), so one scrape shows both.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.metrics == nil {
		http.Error(w, "metrics disabled (start rmserve with -metrics)", http.StatusNotFound)
		return
	}
	s.collectModelMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.WritePrometheus(w); err != nil {
		// The response is already partially written; all that is left is
		// to note it.
		log.Printf("metrics: %v", err)
	}
}

// collectModelMetrics mirrors each model's snapshot into scrape-time
// gauges-as-counters (Counter.Set: the sources are themselves monotonic):
// the serving layer's counters, and the device counters under the mirror
// names of the shared obs.Counters table.
func (s *server) collectModelMetrics() {
	for _, m := range s.models {
		snap, err := m.snapshot(s.router)
		if err != nil {
			continue
		}
		label := obs.L("model", m.decl.Name)
		for _, c := range []struct {
			name string
			v    int64
		}{
			{"rmssd_model_submitted_total", snap.Submitted},
			{"rmssd_model_rejected_total", snap.Rejected},
			{"rmssd_model_failed_total", snap.Failed},
			{"rmssd_model_waited_total", snap.Waited},
			{"rmssd_model_requests_total", snap.Pool.Requests},
			{"rmssd_model_inferences_total", snap.Pool.Inferences},
			{"rmssd_model_device_batches_total", snap.Pool.Batches},
			{"rmssd_model_shard_faults_total", snap.Pool.Faults},
			{"rmssd_model_device_inferences_total", snap.inferences},
		} {
			s.metrics.Counter(c.name, label).Set(c.v)
		}
		snap.Each(func(name obs.CounterName, v int64) {
			s.metrics.Counter(name.Mirror, label).Set(v)
		})
	}
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
// EndBatch uses, so device spans join their batch records. An array emits
// its top member's span last, which the tracer keeps as the batch's device
// span.
func (s hosting) installReplaySinks(t *obs.Tracer) {
	for _, m := range s.models {
		for _, sh := range m.shards {
			model, shard := m.decl.Name, sh.id
			sh.setSpanSinks(t.DeviceSink(model, shard), func(di int) obs.SpanSink {
				return t.ArrayDeviceSink(model, shard, di)
			})
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
