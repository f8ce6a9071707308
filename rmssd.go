// Package rmssd is a simulation-based reproduction of "RM-SSD: In-Storage
// Computing for Large-Scale Recommendation Inference" (Sun, Wan, Li, Yang,
// Kuo & Xue, HPCA 2022).
//
// The package re-exports the library's public surface:
//
//   - recommendation models (Table III's DLRM-RMC1/2/3, plus NCF and WnD)
//     with a host reference implementation producing real float32 CTR
//     predictions;
//   - the RM-SSD device: a simulated 4-channel flash SSD whose controller
//     hosts the Embedding Lookup Engine (vector-grained in-storage reads
//     and pooling) and the MLP Acceleration Engine (intra-layer
//     decomposition, inter-layer composition, kernel search);
//   - every baseline the paper compares against (DRAM, SSD-S/M, EMB-MMIO,
//     EMB-PageSum, EMB-VectorSum, RecSSD);
//   - synthetic trace generation with the paper's locality presets;
//   - the experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	cfg := rmssd.RMC1()
//	cfg.RowsPerTable = cfg.RowsForBudget(256 << 20) // scale tables down
//	dev := rmssd.MustNewDevice(cfg, rmssd.DeviceOptions{})
//	gen := rmssd.MustNewTrace(rmssd.TraceConfig{
//		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups,
//	})
//	dense := gen.DenseInput(0, cfg.DenseDim)
//	outs, done, _, err := dev.InferBatch(0, []rmssd.Vector{dense}, gen.Batch(1))
//	if err != nil {
//		log.Fatal(err) // typed: ErrShapeMismatch, ErrRowOutOfRange, ErrReadFault
//	}
//	fmt.Printf("CTR=%.4f in %v simulated\n", outs[0], done)
//
// All timing in this library is simulated virtual time derived from the
// paper's published delay equations (Table II and Section V); no result
// depends on the wall clock, so every run is deterministic.
package rmssd

import (
	"fmt"

	"rmssd/internal/array"
	"rmssd/internal/baseline"
	"rmssd/internal/bench"
	"rmssd/internal/core"
	"rmssd/internal/engine"
	"rmssd/internal/evcache"
	"rmssd/internal/flash"
	"rmssd/internal/model"
	"rmssd/internal/obs"
	"rmssd/internal/params"
	"rmssd/internal/serving"
	"rmssd/internal/tensor"
	"rmssd/internal/trace"
)

// --- models ---

// ModelConfig describes a recommendation model (see Table III).
type ModelConfig = model.Config

// Model is a materialised model: config plus deterministic weights.
type Model = model.Model

// Vector is a dense float32 vector.
type Vector = tensor.Vector

// Built-in model configurations.
var (
	// RMC1 is the embedding-dominated DLRM-RMC1 (8 tables x 80 lookups).
	RMC1 = model.RMC1
	// RMC2 is the most embedding-heavy model (32 tables x 120 lookups).
	RMC2 = model.RMC2
	// RMC3 is the MLP-dominated model (12.23 MB MLP).
	RMC3 = model.RMC3
	// NCF is Neural Collaborative Filtering (one lookup per table).
	NCF = model.NCF
	// WnD is Wide & Deep (26 single-lookup tables).
	WnD = model.WnD
	// AllModels returns every built-in configuration.
	AllModels = model.AllConfigs
	// ModelByName resolves a built-in configuration by name.
	ModelByName = model.ConfigByName
	// BuildModel materialises weights for a configuration.
	BuildModel = model.Build
	// BuildResidentModel materialises weights for a model hosted for the
	// life of the process, in read-only memory outside the GC heap.
	BuildResidentModel = model.BuildResident
)

// TableIIIBudget is the paper's 30 GB embedding-table budget per model.
const TableIIIBudget = model.TableIIIBudget

// --- the RM-SSD device ---

// Device is the full RM-SSD: simulated flash plus both in-storage engines
// behind the MMIO/DMA host interface.
type Device = core.RMSSD

// DeviceOptions configures device construction.
type DeviceOptions = core.Options

// Breakdown reports a batch's stage times.
type Breakdown = core.Breakdown

// FaultPlan enables deterministic flash read-fault injection (seeded
// per-channel ECC failures with bounded retries); the zero value disables
// it and leaves every simulated timeline byte-identical to an unfaulted
// device. Install via DeviceOptions.FaultPlan.
type FaultPlan = flash.FaultPlan

// Typed device errors. Any input-dependent failure of InferBatch wraps one
// of these; match with errors.Is.
var (
	// ErrShapeMismatch: batch shape disagrees with the model configuration.
	ErrShapeMismatch = core.ErrShapeMismatch
	// ErrRowOutOfRange: a sparse index addresses an uncovered embedding row.
	ErrRowOutOfRange = core.ErrRowOutOfRange
	// ErrReadFault: an injected flash read exhausted its ECC retry budget.
	ErrReadFault = core.ErrReadFault
)

// Design selects the MLP engine mapping; the zero value is the full RM-SSD.
type Design = engine.Design

// MLP engine mapping variants (Table VI's rows).
const (
	DesignSearched = engine.DesignSearched
	DesignDefault  = engine.DesignDefault
	DesignNaive    = engine.DesignNaive
)

// NewDevice builds an RM-SSD hosting the model: tables are laid out on the
// simulated flash and registered with the EV Translator.
func NewDevice(cfg ModelConfig, opts DeviceOptions) (*Device, error) {
	return core.New(cfg, opts)
}

// NewDeviceFromModel is NewDevice around an already-built model. The device
// reads m's weights in place and never writes them, so every shard of one
// hosted model can share a single BuildModel result.
func NewDeviceFromModel(m *Model, opts DeviceOptions) (*Device, error) {
	return core.NewFromModel(m, opts)
}

// MustNewDevice is NewDevice, panicking on error.
func MustNewDevice(cfg ModelConfig, opts DeviceOptions) *Device {
	d, err := NewDevice(cfg, opts)
	if err != nil {
		panic(fmt.Sprintf("rmssd: %v", err))
	}
	return d
}

// NewNaiveDevice builds the RM-SSD-Naive comparison point: same hardware,
// conventional layer-by-layer MLP mapping, no pipelining.
func NewNaiveDevice(cfg ModelConfig, opts DeviceOptions) (*Device, error) {
	opts.Design = engine.DesignNaive
	return core.New(cfg, opts)
}

// LookupStats counts Embedding Lookup Engine activity (lookups, pooled
// bytes, intra-batch dedup hits); snapshot via Device.Lookup().Stats().
type LookupStats = engine.LookupStats

// EVCache is the device-DRAM hot-vector cache installed by
// DeviceOptions.EVCacheBytes; reach it via Device.Lookup().EVCache().
type EVCache = evcache.Cache

// EVCacheStats counts EV cache hits, misses and evictions.
type EVCacheStats = evcache.Stats

// Session is the paper's host runtime interface: fd-based table access
// with ownership checks (RM_create_table / RM_open_table /
// RM_send_inputs / RM_read_outputs).
type Session = core.Session

// Geometry describes the simulated flash array.
type Geometry = flash.Geometry

// FlashStats holds the flash array's traffic counters.
type FlashStats = flash.Stats

// DefaultGeometry returns the paper's Table II device: 32 GB, 4 channels.
var DefaultGeometry = flash.DefaultGeometry

// FPGA part budgets from Table VI.
var (
	XCVU9P   = params.XCVU9P
	XC7A200T = params.XC7A200T
)

// --- multi-device arrays ---

// Array is a multi-device RM-SSD: one logical model's embedding tables
// partitioned across member devices, with lookups scattered to owners and
// partial sums gathered on a designated top-MLP member over a modeled
// inter-device link. A one-member array is bit-identical to Device;
// build with DeviceOptions{ArrayDevices: N, Partition: "range"|"hash"}.
type Array = array.Array

// ArrayPartition is a partition spec (strategy + device count + optional
// explicit range bounds), ArrayLayout its validated resolution against a
// model's row space, and ArrayStats the scatter/gather counter snapshot.
type (
	ArrayPartition = array.Partition
	ArrayLayout    = array.Layout
	ArrayStats     = array.Stats
)

// ArrayStrategy names a partitioning scheme.
type ArrayStrategy = array.Strategy

// Partition strategies: contiguous row blocks per device, or modular row
// striping.
const (
	PartitionRange = array.StrategyRange
	PartitionHash  = array.StrategyHash
)

// MaxArrayDevices bounds the member count of one array.
const MaxArrayDevices = array.MaxDevices

// NewArray builds a multi-device array from the same options as NewDevice;
// opts.ArrayDevices and opts.Partition select the layout and the remaining
// options apply to every member device.
func NewArray(cfg ModelConfig, opts DeviceOptions) (*Array, error) {
	return array.New(cfg, opts)
}

// NewArrayFromModel is NewArray around an already-built model: every member
// shares m's weights read-only.
func NewArrayFromModel(m *Model, opts DeviceOptions) (*Array, error) {
	return array.NewFromModel(m, opts)
}

// MustNewArray is NewArray, panicking on error.
var MustNewArray = array.MustNew

// ArrayTransferCost prices one member->top gather hop of the given byte
// count on the modeled inter-device link.
var ArrayTransferCost = array.TransferCost

// --- baselines ---

// System is a complete recommendation-inference deployment (a baseline).
type System = baseline.System

// Env bundles a model's tables laid out on a simulated SSD, shared by the
// SSD-backed baselines.
type Env = baseline.Env

// NewEnv lays a model's tables out on a fresh simulated device.
func NewEnv(cfg ModelConfig, geo Geometry) (*Env, error) { return baseline.NewEnv(cfg, geo) }

// Baseline constructors (see the paper's evaluation for definitions).
var (
	NewDRAM         = baseline.NewDRAM
	NewSSDS         = baseline.NewSSDS
	NewSSDM         = baseline.NewSSDM
	NewEmbMMIO      = baseline.NewEmbMMIO
	NewEmbPageSum   = baseline.NewEmbPageSum
	NewEmbVectorSum = baseline.NewEmbVectorSum
	NewRecSSD       = baseline.NewRecSSD
)

// --- traces ---

// TraceConfig parameterises synthetic input generation.
type TraceConfig = trace.Config

// TraceGenerator produces deterministic inference inputs.
type TraceGenerator = trace.Generator

// NewTrace builds a generator (defaults give the paper's 65 % locality).
func NewTrace(cfg TraceConfig) (*TraceGenerator, error) { return trace.NewGenerator(cfg) }

// MustNewTrace is NewTrace, panicking on error.
var MustNewTrace = trace.MustNew

// AnalyzeTrace computes Fig. 4-style access statistics.
var AnalyzeTrace = trace.Analyze

// CriteoRecord is one parsed example of the Kaggle Criteo TSV format.
type CriteoRecord = trace.CriteoRecord

// CriteoParser streams records from a Criteo-format TSV reader.
type CriteoParser = trace.CriteoParser

// Criteo ingestion helpers: parse the dataset's native TSV, synthesise a
// deterministic stand-in stream, and adapt records to a model's shape.
var (
	NewCriteoParser     = trace.NewCriteoParser
	ParseCriteoLine     = trace.ParseCriteoLine
	SynthesizeCriteoTSV = trace.SynthesizeCriteoTSV
	RecordsToInference  = trace.RecordsToInference
)

// --- serving ---

// ServingRequest is one client submission to a serving pool: either
// count-only (server-synthesised inputs) or carrying explicit dense +
// sparse payloads — the RM_send_inputs shape of Section VI.
type ServingRequest = serving.Request

// ServingResponse is what one submitted request gets back; Preds is an
// owned copy of this request's window of the coalesced batch result.
type ServingResponse = serving.Response

// ServingPool is the sharded batching front-end: N independent devices,
// each with its own virtual clock, behind round-robin dispatch with
// consecutive-small-batch coalescing.
type ServingPool = serving.Pool

// ServingBatcher is one shard's backend.
type ServingBatcher = serving.Batcher

// ServingBatchResult is the outcome of one coalesced device batch.
type ServingBatchResult = serving.BatchResult

// NewDeviceShard builds the serving backend over a Device or an Array: one
// model replica with its own simulated clock, serving coalesced requests as
// one device batch. Count-only requests draw inputs from the generator (nil
// fails them); denseDim sizes the zero dense vector substituted for an
// absent dense payload.
var NewDeviceShard = serving.NewDeviceShard

// ServingStats is an aggregate snapshot of a pool's counters, including
// recovered backend faults and error-answered requests.
type ServingStats = serving.Stats

// ShardFaultError reports a serving backend that panicked under a shard
// worker; the worker recovered, failed that batch's requests with this
// error and kept serving. Match with errors.As.
type ShardFaultError = serving.ShardFaultError

// ErrPoolClosed is returned by pool submissions after Close.
var ErrPoolClosed = serving.ErrPoolClosed

// NewServingPool builds a pool over independent device backends.
var NewServingPool = serving.NewPool

// Trace replay: drive the shards open-loop from an external request stream
// on a deterministic virtual arrival timeline.
type (
	ReplayConfig  = serving.ReplayConfig
	ReplayResult  = serving.ReplayResult
	RequestSource = serving.RequestSource
)

// Replay and its request sources (synthetic generator, Criteo TSV).
var (
	Replay             = serving.Replay
	NewGeneratorSource = serving.NewGeneratorSource
	NewCriteoSource    = serving.NewCriteoSource
)

// --- multi-model serving ---

// ModelSpec declares a hosted model's backends, batching limits and
// admission weight, for the live router and the mixed replay alike;
// ModelStats is a live per-model counter snapshot.
type (
	ModelSpec  = serving.ModelSpec
	ModelStats = serving.ModelStats
)

// ModelRouter owns one serving pool per hosted model and dispatches
// requests by model name with optional shared-host admission control
// (weighted round robin over a bounded in-flight budget).
type ModelRouter = serving.Router

// Multi-model router constructor and sentinel error.
var (
	NewModelRouter  = serving.NewRouter
	ErrUnknownModel = serving.ErrUnknownModel
)

// Mixed-model trace replay: a tagged request stream partitioned by model,
// each model replaying its subsequence on its own seeded virtual timeline.
type (
	TaggedRequest     = serving.TaggedRequest
	TaggedSource      = serving.TaggedSource
	TaggedPart        = serving.TaggedPart
	MultiReplayConfig = serving.MultiReplayConfig
	MultiReplayResult = serving.MultiReplayResult
)

// ReplayModel is the former name of ModelSpec in MultiReplay's model list,
// kept as an alias because the benchmark module still uses it.
type ReplayModel = ModelSpec

// MultiReplay helpers: the replay itself, the deterministic weighted
// interleave of per-model sources, and the per-model seed derivation that
// makes mixed-replay results reproducible one model at a time.
var (
	MultiReplay          = serving.MultiReplay
	NewInterleavedSource = serving.NewInterleavedSource
	ModelReplaySeed      = serving.ModelReplaySeed
)

// --- observability ---

// Sim-time observability: deterministic stage tracing and metrics. A
// Tracer collects per-batch records (queue wait, device stage spans,
// counter deltas) on the simulated timeline and feeds an optional
// Registry of fixed-bucket histograms and counters; both render
// byte-identically regardless of host scheduling. Install on a device
// via Device.SetSpanSink (a nil sink — the default — costs one pointer
// check per batch) and thread into replays via ReplayConfig.Tracer.
type (
	ObsRegistry  = obs.Registry
	ObsTracer    = obs.Tracer
	DeviceSpan   = obs.DeviceSpan
	MemberSpan   = obs.MemberSpan
	SpanSink     = obs.SpanSink
	StageSpan    = obs.StageSpan
	TraceRequest = obs.TraceRequest
	BatchRecord  = obs.BatchRecord
)

// Observability constructors and the pinned trace schema version.
var (
	NewObsRegistry = obs.NewRegistry
	NewObsTracer   = obs.NewTracer
)

// ObsTraceSchemaVersion identifies the BatchRecord JSONL schema; it is
// part of the conformance surface (the replay/trace golden pins it).
const ObsTraceSchemaVersion = obs.TraceSchemaVersion

// --- experiments ---

// Experiment is a runnable paper experiment (a table or figure).
type Experiment = bench.Experiment

// ExperimentOptions tunes experiment scale.
type ExperimentOptions = bench.Options

// ResultTable is a rendered experiment result.
type ResultTable = bench.Table

// Experiments lists every reproducible table and figure in paper order.
var Experiments = bench.Experiments

// FindExperiment resolves an experiment by name (e.g. "fig12").
var FindExperiment = bench.Find
