// Command rmserve exposes simulated RM-SSDs behind an HTTP API: a
// self-contained playground for exploring the device interactively.
//
//	rmserve -model RMC1 -table-mb 256 -shards 4 -addr :8080
//	rmserve -models config.json -host-budget 8 -addr :8080
//
// Endpoints:
//
//	GET  /info             device, model and shard configuration
//	GET  /models           hosted models with live per-model counters
//	GET  /qps?batch=N      analytic steady-state throughput (add &model=NAME)
//	POST /infer            inference request -> CTR predictions + simulated timing
//	GET  /stats            device counters and pool totals over all models,
//	                       per-shard clocks and observed QPS
//
// /infer accepts two request forms, optionally addressed to a hosted model
// by name (`"model": "ctr"`; the first configured model is the default).
// The trace-driven form carries the inputs — per-inference sparse indices
// (and optionally dense vectors), exactly what the paper's RM_send_inputs
// interface transfers:
//
//	{"model": "ctr", "sparse": [[[i...] per table] per inference], "dense": [[f...] per inference]}
//
// The count-only demo form `{"batch": N}` instead synthesises N inferences
// from the shard's own locality-model generator. Either way the reply
// reports predictions, the simulated latency breakdown and how the request
// was coalesced.
//
// Each model is hosted on independent device shards behind a batching
// front-end that coalesces concurrent requests landing on the same shard
// into one device batch (Section VI's consecutive-small-batch pipelining).
// Multi-model mode (-models config.json) hosts several heterogeneous
// replicas — different architectures, table budgets and shard counts — each
// behind its own pool, with a router dispatching by model name. -host-budget
// B bounds the requests in flight across all models at once (the models
// share the host's cores and PCIe lanes even though their devices are
// independent); freed slots are granted by weighted round robin over the
// waiting models.
//
// Every request and reply body, and the hosted-model declaration, is
// declared once in package internal/wire, which rmreplay and the tests
// share. A hosted model is one declaration (wire.ModelDecl): each -models
// entry is one, and single-model mode binds its flags into one. Both go
// through the same validation, which applies every default and owns every
// bound; /info and /models render the validated declaration back with the
// same keys. Only -shards and -fault-seed default differently from their
// keys (the key's default is in parentheses):
//
//	flag            key           default          bound
//	-model          model         RMC1 (required)  a built-in architecture
//	                name          the architecture unique across the file
//	-table-mb       tableMB       256              (0, 2^20] MiB
//	-shards         shards        GOMAXPROCS (1)   >= 0; 0 means 1
//	-max-batch      maxBatch      device NBatch    >= 0
//	-queue          queue         256              >= 0; 0 means 256
//	                weight        1                >= 0; 0 means 1
//	                seed          -seed            0 inherits -seed
//	-ev-cache-mb    evCacheMB     0 (off)          [0, 2^20] MiB
//	-dedup          dedup         off
//	-fault-rate     faultRate     0 (off)          [0, 1)
//	-fault-seed     faultSeed     1 (0)
//	-array-devices  arrayDevices  0 (one device)   [0, 64]
//	-partition      partition     range            range or hash; needs arrayDevices > 1
//
// With -trace, rmserve does not serve HTTP at all: it builds the hosted
// models' shards, with no router or pool, replays a request stream through
// them open-loop at -rate requests per simulated second and prints a
// deterministic latency/coalescing report (byte-identical for the same seed
// and configuration). In multi-model mode the replay interleaves each
// model's stream by weight and reports one section per model plus the
// aggregate:
//
//	rmserve -trace synthetic -requests 2000 -rate 50000 -req-batch 2
//	rmserve -trace criteo -criteo-in day0.tsv -rate 50000
//	rmserve -models config.json -trace synthetic -requests 2000 -rate 50000
//
// Use cmd/rmreplay to drive the HTTP path from a trace instead.
//
// All timing in responses is simulated; the server itself is just a thin
// shell around the deterministic library.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"rmssd"
	"rmssd/internal/obs"
	"rmssd/internal/serving"
	"rmssd/internal/wire"
)

// deviceShard is one independent device replica: a serving.DeviceShard
// (its own virtual clock and trace stream) behind a mutex. The pool calls
// ServeBatch from one goroutine; the mutex only fences those calls against
// stats readers.
type deviceShard struct {
	id int

	mu sync.Mutex
	sh *serving.DeviceShard
}

// ServeBatch implements serving.Batcher by serving the batch on the shard
// under its lock.
func (d *deviceShard) ServeBatch(reqs []serving.Request) serving.BatchResult {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sh.ServeBatch(reqs)
}

// array returns the shard's backend as a multi-device array, or nil for a
// plain single-device shard.
func (d *deviceShard) array() *rmssd.Array {
	a, _ := d.sh.Device().(*rmssd.Array)
	return a
}

// setSpanSinks installs span sinks on the shard's devices: single on a
// plain shard, member(i) on member i of an array.
func (d *deviceShard) setSpanSinks(single obs.SpanSink, member func(i int) obs.SpanSink) {
	a := d.array()
	if a == nil {
		d.sh.Device().(*rmssd.Device).SetSpanSink(single)
		return
	}
	for i, dev := range a.Devices() {
		dev.SetSpanSink(member(i))
	}
}

// shardSnapshot is one shard's counters, read under one lock.
type shardSnapshot struct {
	obs.Counters                   // summed over the shard's devices
	inferences   int64             // served by the device(s)
	now          time.Duration     // shard-local simulated clock
	array        *rmssd.ArrayStats // scatter/gather; nil on a plain shard
}

// snapshot returns the shard's counters consistently.
func (d *deviceShard) snapshot() shardSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	dev := d.sh.Device()
	sn := shardSnapshot{Counters: dev.Counters(), inferences: dev.Inferences(), now: d.sh.Now()}
	if a := d.array(); a != nil {
		st := a.Stats()
		sn.array = &st
	}
	return sn
}

// modelSnapshot is one hosted model's counters: its shards' snapshots,
// their sum, and the serving layer's routing and pool counters. /stats,
// /models, /metrics and the replay report are renderings of it.
type modelSnapshot struct {
	obs.Counters                   // summed over shards
	inferences   int64             // served by the devices
	array        *rmssd.ArrayStats // summed over shards; nil unless array-backed
	shards       []shardSnapshot
	serving.ModelStats
}

// snapshot reads every shard and the model's serving counters.
func (m *hostedModel) snapshot(rt *serving.Router) (modelSnapshot, error) {
	snap := m.devices()
	var err error
	snap.ModelStats, err = rt.ModelStats(m.decl.Name)
	return snap, err
}

// devices reads every shard and sums their device counters; the serving
// counters stay zero.
func (m *hostedModel) devices() modelSnapshot {
	var snap modelSnapshot
	for _, sh := range m.shards {
		sn := sh.snapshot()
		snap.Add(sn.Counters)
		snap.inferences += sn.inferences
		if a := sn.array; a != nil {
			if snap.array == nil {
				snap.array = &rmssd.ArrayStats{
					Devices: a.Devices, Partition: a.Partition, Scattered: make([]int64, len(a.Scattered)),
				}
			}
			t := snap.array
			t.Batches += a.Batches
			t.Inferences += a.Inferences
			for d, n := range a.Scattered {
				t.Scattered[d] += n
			}
			t.Partials += a.Partials
			t.Transfers += a.Transfers
			t.TransferBytes += a.TransferBytes
		}
		snap.shards = append(snap.shards, sn)
	}
	return snap
}

// hostedModel is one named model on the server: its validated declaration,
// resolved config and device shards. Its pool lives in the router.
type hostedModel struct {
	decl   wire.ModelDecl
	cfg    rmssd.ModelConfig
	shards []*deviceShard
}

// backends adapts the shards to the serving layer.
func (m *hostedModel) backends() []serving.Batcher {
	bs := make([]serving.Batcher, len(m.shards))
	for i, sh := range m.shards {
		bs[i] = sh
	}
	return bs
}

// spec is the model's serving declaration, for the live router and the
// mixed replay alike.
func (m *hostedModel) spec() serving.ModelSpec {
	return serving.ModelSpec{
		Name:       m.decl.Name,
		Backends:   m.backends(),
		MaxBatch:   m.decl.MaxBatch,
		QueueDepth: m.decl.Queue,
		Weight:     m.decl.Weight,
	}
}

// hosting is the process's hosted models, by name and in declaration
// order; the first is the default for requests that do not name one, which
// keeps the single-model API unchanged. Replay mode runs on it alone and
// starts no goroutine; the HTTP server puts a router over it.
type hosting struct {
	models []*hostedModel
	byName map[string]*hostedModel
	def    *hostedModel
}

// newHosting indexes built models; the first one is the default.
func newHosting(hosted []*hostedModel) hosting {
	byName := make(map[string]*hostedModel, len(hosted))
	for _, m := range hosted {
		byName[m.decl.Name] = m
	}
	return hosting{models: hosted, byName: byName, def: hosted[0]}
}

// resolve maps a request's model name to its hosted model; empty names get
// the default model.
func (h hosting) resolve(name string) (*hostedModel, error) {
	if name == "" {
		return h.def, nil
	}
	m, ok := h.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", serving.ErrUnknownModel, name)
	}
	return m, nil
}

// server is the multi-model HTTP front-end: a router owning one pool per
// hosted model and dispatching by model name.
type server struct {
	hosting
	router *serving.Router

	// metrics is the observability registry behind /metrics; nil (the
	// default) keeps the endpoint returning 404 and the devices span-free.
	metrics *obs.Registry
}

// newServer builds the router over the hosted models with the shared host
// budget (0 = unlimited).
func newServer(h hosting, budget int) (*server, error) {
	specs := make([]serving.ModelSpec, len(h.models))
	for i, m := range h.models {
		specs[i] = m.spec()
	}
	rt, err := serving.NewRouter(specs, budget)
	if err != nil {
		return nil, err
	}
	return &server{hosting: h, router: rt}, nil
}

// close shuts down every pool.
func (s *server) close() { s.router.Close() }

func main() {
	var single wire.ModelDecl
	bindModelFlags(flag.CommandLine, &single)
	var (
		modelsFile = flag.String("models", "", "JSON file declaring hosted models (multi-model mode; overrides -model)")
		hostBudget = flag.Int("host-budget", 0, "shared in-flight request budget across models (0 = unlimited)")
		addr       = flag.String("addr", ":8080", "listen address")
		seed       = flag.Uint64("seed", 1, "trace seed")
		traceMode  = flag.String("trace", "", "replay a trace through the shards and exit: 'synthetic' or 'criteo'")
		criteoIn   = flag.String("criteo-in", "", "Criteo-format TSV file for -trace criteo")
		rate       = flag.Float64("rate", 50000, "replay offered load in requests per simulated second")
		requests   = flag.Int("requests", 2000, "replay request count (synthetic; criteo stops at EOF)")
		reqBatch   = flag.Int("req-batch", 1, "inferences per replayed request")
		metrics    = flag.Bool("metrics", false, "expose the /metrics endpoint (Prometheus text format)")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		traceOut   = flag.String("trace-out", "", "replay mode: write the sim-time trace as JSONL to this file ('-' = stdout)")
	)
	flag.Parse()

	mc := wire.ModelsConfig{Models: []wire.ModelDecl{single}}
	if *modelsFile != "" {
		var err error
		if mc, err = wire.LoadModelsConfig(*modelsFile); err != nil {
			log.Fatal(err)
		}
	}
	if *traceMode != "" {
		rc := replayConfig{
			Mode: *traceMode, CriteoIn: *criteoIn, Rate: *rate,
			Requests: *requests, ReqBatch: *reqBatch, Seed: *seed,
			TraceOut: *traceOut,
		}
		if *traceOut != "" || *metrics {
			rc.Tracer = obs.NewTracer(obs.NewRegistry())
		}
		log.Printf("building RM-SSD shards for %d model(s)...", len(mc.Models))
		if err := replayModels(mc, *seed, rc, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	log.Printf("building RM-SSD pools for %d model(s)...", len(mc.Models))
	s, err := serveModels(mc, *seed, *hostBudget)
	if err != nil {
		log.Fatal(err)
	}

	if *metrics {
		s.enableMetrics()
	}
	mux := s.routes()
	if *pprofOn {
		mountPprof(mux)
	}
	var agg float64
	for _, m := range s.models {
		dev := m.shards[0].sh.Device()
		agg += float64(dev.SteadyStateQPS(dev.NBatch()) * float64(len(m.shards)))
	}
	log.Printf("serving on %s (%d models, budget %d, aggregate steady-state %.0f QPS)",
		*addr, len(s.models), s.router.Budget(), agg)
	log.Fatal(http.ListenAndServe(*addr, mux))
}

// routes wires the server's endpoints into a mux; shared by main and the
// concurrency tests so both exercise the same routing.
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/info", s.handleInfo)
	mux.HandleFunc("/models", s.handleModels)
	mux.HandleFunc("/qps", s.handleQPS)
	mux.HandleFunc("/infer", s.handleInfer)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("encode: %v", err)
	}
}

// info describes the model: its validated declaration and resolved shape.
func (m *hostedModel) info() wire.ModelInfo {
	return wire.NewModelInfo(m.decl, m.cfg, m.shards[0].sh.Device().NBatch())
}

// writeError writes err as an error reply with the given status.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, wire.ErrorReply{Error: err.Error()})
}

func (s *server) handleInfo(w http.ResponseWriter, r *http.Request) {
	// The model fields describe the default model, which keeps the
	// single-model API shape; `models` lists every hosted name.
	writeJSON(w, http.StatusOK, wire.Info{
		ModelInfo:    s.def.info(),
		Models:       s.router.Models(),
		DefaultModel: s.def.decl.Name,
		HostBudget:   s.router.Budget(),
	})
}

// handleModels lists every hosted model's configuration alongside its live
// routing, latency and coalescing counters, in sorted name order so the
// response bytes are deterministic by construction.
func (s *server) handleModels(w http.ResponseWriter, r *http.Request) {
	hosted := append([]*hostedModel(nil), s.models...)
	sort.Slice(hosted, func(i, j int) bool { return hosted[i].decl.Name < hosted[j].decl.Name })
	out := wire.Models{
		Models:       make([]wire.ModelEntry, 0, len(hosted)),
		DefaultModel: s.def.decl.Name,
		HostBudget:   s.router.Budget(),
	}
	for _, m := range hosted {
		snap, err := m.snapshot(s.router)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		out.Models = append(out.Models, wire.ModelEntry{
			ModelInfo: m.info(),
			Submitted: snap.Submitted, Rejected: snap.Rejected, Failed: snap.Failed,
			ShardFaults: snap.Pool.Faults, Waited: snap.Waited,
			Requests: snap.Pool.Requests, Inferences: snap.Pool.Inferences,
			DeviceBatches: snap.Pool.Batches, MeanBatch: snap.Pool.MeanBatch,
			MeanSimLatency: snap.MeanLatency.String(), MaxSimLatency: snap.MaxLatency.String(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleQPS(w http.ResponseWriter, r *http.Request) {
	m, err := s.resolve(r.URL.Query().Get("model"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	batch := 1
	if b := r.URL.Query().Get("batch"); b != "" {
		v, err := strconv.Atoi(b)
		if err != nil || v < 1 || v > 4096 {
			writeError(w, http.StatusBadRequest, errors.New("batch must be in [1,4096]"))
			return
		}
		batch = v
	}
	// SteadyStateQPS and Latency are pure functions of the configuration;
	// no shard state is involved.
	per := m.shards[0].sh.Device().SteadyStateQPS(batch)
	writeJSON(w, http.StatusOK, wire.QPS{
		Model:          m.decl.Name,
		Batch:          batch,
		Shards:         len(m.shards),
		SteadyStateQPS: per,
		AggregateQPS:   per * float64(len(m.shards)),
		BatchLatency:   m.shards[0].sh.Device().Latency(batch).String(),
	})
}

// maxInferBatch caps one request's inference count.
const maxInferBatch = 256

// validatePayload checks an explicit request against the hosted model's
// shape: every inference must carry cfg.Tables tables of cfg.Lookups
// in-range indices, and dense vectors (when present) must be DenseDim wide.
func validatePayload(cfg rmssd.ModelConfig, req serving.Request) error {
	for i, inf := range req.Sparse {
		if len(inf) != cfg.Tables {
			return fmt.Errorf("inference %d: %d tables, want %d", i, len(inf), cfg.Tables)
		}
		for t, idx := range inf {
			if len(idx) != cfg.Lookups {
				return fmt.Errorf("inference %d table %d: %d lookups, want %d", i, t, len(idx), cfg.Lookups)
			}
			for _, row := range idx {
				if row < 0 || row >= cfg.RowsPerTable {
					return fmt.Errorf("inference %d table %d: row %d outside [0,%d)", i, t, row, cfg.RowsPerTable)
				}
			}
		}
		if req.Dense != nil && len(req.Dense[i]) != cfg.DenseDim {
			return fmt.Errorf("inference %d: dense dim %d, want %d", i, len(req.Dense[i]), cfg.DenseDim)
		}
	}
	return nil
}

// buildInferRequest validates the decoded body against the addressed
// model's shape and converts it to a serving request. Shared by the HTTP
// handler and the fuzz harness.
func (s *server) buildInferRequest(req wire.InferRequest) (*hostedModel, serving.Request, error) {
	m, err := s.resolve(req.Model)
	if err != nil {
		return nil, serving.Request{}, err
	}
	switch {
	case len(req.Sparse) > 0:
		if req.Batch > 0 && req.Batch != len(req.Sparse) {
			return nil, serving.Request{}, fmt.Errorf("batch %d does not match %d sparse inferences", req.Batch, len(req.Sparse))
		}
		if len(req.Sparse) > maxInferBatch {
			return nil, serving.Request{}, fmt.Errorf("batch too large (max %d)", maxInferBatch)
		}
		if req.Dense != nil && len(req.Dense) != len(req.Sparse) {
			return nil, serving.Request{}, fmt.Errorf("%d dense vectors for %d inferences", len(req.Dense), len(req.Sparse))
		}
		sreq := serving.Request{Sparse: req.Sparse, Dense: req.Dense}
		if err := validatePayload(m.cfg, sreq); err != nil {
			return nil, serving.Request{}, err
		}
		return m, sreq, nil
	case req.Dense != nil:
		return nil, serving.Request{}, errors.New("dense payload without sparse indices")
	default:
		if req.Batch <= 0 {
			req.Batch = 1
		}
		if req.Batch > maxInferBatch {
			return nil, serving.Request{}, fmt.Errorf("batch too large (max %d)", maxInferBatch)
		}
		return m, serving.Request{N: req.Batch}, nil
	}
}

func (s *server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req wire.InferRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	m, sreq, err := s.buildInferRequest(req)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, serving.ErrUnknownModel) {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	resp, err := s.router.Submit(r.Context(), m.decl.Name, sreq)
	if err != nil {
		writeError(w, inferStatus(err), err)
		return
	}
	bd, _ := resp.Meta.(rmssd.Breakdown)
	writeJSON(w, http.StatusOK, wire.InferReply{
		Model:             m.decl.Name,
		Predictions:       resp.Preds,
		SimulatedLatency:  resp.Latency.String(),
		Shard:             resp.Shard,
		CoalescedBatch:    resp.BatchSize,
		CoalescedRequests: resp.Coalesced,
		Breakdown:         wire.NewBreakdown(bd),
	})
}

// inferStatus maps a submission error onto an HTTP status: malformed
// payloads are the client's fault (400), an unknown model is 404, transient
// conditions — shutdown, cancellation, an injected read fault the client
// may retry — are 503, and anything else is a server error (500). A
// recovered backend panic (*serving.ShardFaultError) is one: a genuine
// server error, so it needs no case of its own.
func inferStatus(err error) int {
	switch {
	case errors.Is(err, rmssd.ErrShapeMismatch), errors.Is(err, rmssd.ErrRowOutOfRange):
		return http.StatusBadRequest
	case errors.Is(err, serving.ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, serving.ErrPoolClosed), errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded), errors.Is(err, rmssd.ErrReadFault):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// handleStats renders every model's snapshot: the device counters and
// pool totals summed over models, and one entry per shard.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := wire.Stats{InFlight: s.router.InFlight()}
	var c obs.Counters
	for _, m := range s.models {
		snap, err := m.snapshot(s.router)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		c.Add(snap.Counters)
		out.Inferences += snap.inferences
		out.Requests += snap.Pool.Requests
		out.DeviceBatches += snap.Pool.Batches
		out.ShardFaults += snap.Pool.Faults
		out.FailedRequests += snap.Pool.Failed
		for i, sh := range snap.shards {
			e := wire.ShardStats{Model: m.decl.Name, Shard: m.shards[i].id, Inferences: sh.inferences, SimClock: sh.now.String()}
			if sh.now > 0 {
				e.QPS = float64(sh.inferences) / sh.now.Seconds()
			}
			if sh.array != nil {
				e.Array = wire.NewArrayStats(*sh.array)
			}
			out.ObservedQPS += e.QPS
			out.Shards = append(out.Shards, e)
		}
	}
	if out.DeviceBatches > 0 {
		out.MeanBatch = float64(out.Inferences) / float64(out.DeviceBatches)
	}
	out.VectorReads, out.PageReads, out.BytesTransferred = c.VectorReads, c.PageReads, c.BytesTransferred
	out.Lookups, out.DedupHits = c.Lookups, c.DedupHits
	out.EVCacheHits, out.EVCacheMisses, out.EVCacheEvictions = c.CacheHits, c.CacheMisses, c.CacheEvictions
	out.EVCacheHitRatio = c.HitRatio()
	out.ReadFaults, out.ECCRetries, out.Uncorrectable = c.ReadFaults, c.ECCRetries, c.Uncorrectable
	writeJSON(w, http.StatusOK, out)
}
