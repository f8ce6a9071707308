// Package wire declares rmserve's HTTP schema once: the hosted-model
// declaration (a -models entry or single-model mode's flags) and every
// request and reply body of /info, /models, /qps, /infer and /stats.
// rmserve encodes its replies from these types and decodes its requests
// into them, and rmreplay and both commands' tests use the same types, so
// the server and its clients cannot disagree on a key. rmserve's
// TestWireGolden pins the keys and values every endpoint sends.
//
// Durations travel as time.Duration strings ("1.5ms"); counters as
// integers. The package holds shapes and their mappings from library
// types only; rmserve's handlers decide what goes into them.
package wire

import (
	"rmssd/internal/array"
	"rmssd/internal/core"
	"rmssd/internal/model"
	"rmssd/internal/tensor"
)

// InferRequest is /infer's body. Two forms, optionally naming a model:
//
//	{"model": "ctr", "batch": N}      count-only; the server synthesises inputs
//	{"model": "ctr",
//	 "sparse": [[[i,...],...],...],   explicit payload: sparse[i][t] lists
//	 "dense": [[f,...],...]}          table t's lookups for inference i;
//	                                  dense is optional (zero vectors if absent)
//
// An absent model field addresses the default (first configured) model.
type InferRequest struct {
	Model  string          `json:"model,omitempty"`
	Batch  int             `json:"batch,omitempty"`
	Sparse [][][]int64     `json:"sparse"`
	Dense  []tensor.Vector `json:"dense,omitempty"`
}

// InferReply is /infer's success body: the request's predictions, the
// simulated latency of the device batch that served it, and how that batch
// was coalesced.
type InferReply struct {
	Model             string    `json:"model"`
	Predictions       []float32 `json:"predictions"`
	SimulatedLatency  string    `json:"simulatedLatency"`
	Shard             int       `json:"shard"`
	CoalescedBatch    int       `json:"coalescedBatch"`
	CoalescedRequests int       `json:"coalescedRequests"`
	Breakdown         Breakdown `json:"breakdown"`
}

// Breakdown is a device batch's simulated stage times.
type Breakdown struct {
	Send string `json:"send"`
	Emb  string `json:"emb"`
	Bot  string `json:"bot"`
	Top  string `json:"top"`
	Read string `json:"read"`
}

// NewBreakdown renders a batch's stage times.
func NewBreakdown(b core.Breakdown) Breakdown {
	return Breakdown{
		Send: b.Send.String(), Emb: b.Emb.String(), Bot: b.Bot.String(),
		Top: b.Top.String(), Read: b.Read.String(),
	}
}

// ErrorReply is every endpoint's error body.
type ErrorReply struct {
	Error string `json:"error"`
}

// ModelInfo describes one hosted model: its validated declaration and the
// shape it resolves to. It is the shared base of /info and of each /models
// entry.
type ModelInfo struct {
	ModelDecl
	Tables       int   `json:"tables"`
	Lookups      int   `json:"lookups"`
	EVDim        int   `json:"evDim"`
	RowsPerTable int64 `json:"rowsPerTable"`
	DenseDim     int   `json:"denseDim"`
	TableBytes   int64 `json:"tableBytes"`
	DeviceBatch  int   `json:"deviceBatch"`
}

// NewModelInfo describes decl hosted with the resolved cfg on devices
// of the given batch size.
func NewModelInfo(decl ModelDecl, cfg model.Config, deviceBatch int) ModelInfo {
	return ModelInfo{
		ModelDecl: decl, Tables: cfg.Tables, Lookups: cfg.Lookups, EVDim: cfg.EVDim,
		RowsPerTable: cfg.RowsPerTable, DenseDim: cfg.DenseDim, TableBytes: cfg.TableBytes(),
		DeviceBatch: deviceBatch,
	}
}

// Info is /info's body: the default model's description plus every hosted
// name, which keeps the single-model API shape.
type Info struct {
	ModelInfo
	Models       []string `json:"models"`
	DefaultModel string   `json:"defaultModel"`
	HostBudget   int      `json:"hostBudget"`
}

// Models is /models' body, its entries in sorted name order.
type Models struct {
	Models       []ModelEntry `json:"models"`
	DefaultModel string       `json:"defaultModel"`
	HostBudget   int          `json:"hostBudget"`
}

// ModelEntry is one /models entry: the model's description with its live
// routing, pool and simulated-latency counters.
type ModelEntry struct {
	ModelInfo
	Submitted      int64   `json:"submitted"`
	Rejected       int64   `json:"rejected"`
	Failed         int64   `json:"failed"`
	ShardFaults    int64   `json:"shardFaults"`
	Waited         int64   `json:"waited"`
	Requests       int64   `json:"requests"`
	Inferences     int64   `json:"inferences"`
	DeviceBatches  int64   `json:"deviceBatches"`
	MeanBatch      float64 `json:"meanBatch"`
	MeanSimLatency string  `json:"meanSimLatency"`
	MaxSimLatency  string  `json:"maxSimLatency"`
}

// QPS is /qps' body: a model's analytic steady-state throughput at one
// batch size.
type QPS struct {
	Model          string  `json:"model"`
	Batch          int     `json:"batch"`
	Shards         int     `json:"shards"`
	SteadyStateQPS float64 `json:"steadyStateQPS"`
	AggregateQPS   float64 `json:"aggregateQPS"`
	BatchLatency   string  `json:"batchLatency"`
}

// Stats is /stats' body: device counters and pool totals summed over every
// hosted model, plus one entry per shard.
type Stats struct {
	VectorReads      int64        `json:"vectorReads"`
	PageReads        int64        `json:"pageReads"`
	BytesTransferred int64        `json:"bytesTransferred"`
	Inferences       int64        `json:"inferences"`
	ObservedQPS      float64      `json:"observedQPS"`
	Requests         int64        `json:"requests"`
	DeviceBatches    int64        `json:"deviceBatches"`
	MeanBatch        float64      `json:"meanBatch"`
	Lookups          int64        `json:"lookups"`
	DedupHits        int64        `json:"dedupHits"`
	EVCacheHits      int64        `json:"evCacheHits"`
	EVCacheMisses    int64        `json:"evCacheMisses"`
	EVCacheEvictions int64        `json:"evCacheEvictions"`
	EVCacheHitRatio  float64      `json:"evCacheHitRatio"`
	ReadFaults       int64        `json:"readFaults"`
	ECCRetries       int64        `json:"eccRetries"`
	Uncorrectable    int64        `json:"uncorrectable"`
	ShardFaults      int64        `json:"shardFaults"`
	FailedRequests   int64        `json:"failedRequests"`
	InFlight         int          `json:"inFlight"`
	Shards           []ShardStats `json:"shards"`
}

// ShardStats is one shard's /stats entry: its simulated clock and the
// throughput it observed on it.
type ShardStats struct {
	Model      string      `json:"model"`
	Shard      int         `json:"shard"`
	Inferences int64       `json:"inferences"`
	SimClock   string      `json:"simClock"`
	QPS        float64     `json:"qps"`
	Array      *ArrayStats `json:"array,omitempty"` // nil on a single-device shard
}

// ArrayStats is an array-backed shard's scatter/gather counters.
type ArrayStats struct {
	Devices       int     `json:"devices"`
	Partition     string  `json:"partition"`
	Scattered     []int64 `json:"scattered"`
	Partials      int64   `json:"partials"`
	Transfers     int64   `json:"transfers"`
	TransferBytes int64   `json:"transferBytes"`
}

// NewArrayStats renders an array's counter snapshot.
func NewArrayStats(a array.Stats) *ArrayStats {
	return &ArrayStats{
		Devices: a.Devices, Partition: string(a.Partition), Scattered: a.Scattered,
		Partials: a.Partials, Transfers: a.Transfers, TransferBytes: a.TransferBytes,
	}
}
