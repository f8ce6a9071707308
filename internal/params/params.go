// Package params collects every calibration constant used by the RM-SSD
// simulation in one documented place.
//
// The SSD-side constants reproduce Table II of the paper ("Performance and
// settings of the emulated SSD") and the delay equations of Section V-A.
// The host-side constants are calibrated so that the DRAM-only and naive
// SSD baselines land in the same order of magnitude as Fig. 2; relative
// comparisons between systems (the quantities the paper reports) depend only
// on the ratio structure, which the published equations fix.
package params

import (
	"time"

	"rmssd/internal/sim"
)

// FPGA clock, Section V-A: "The FPGA runs at 200MHz (5ns)".
const (
	// FPGAClockHz is the FPGA controller clock frequency.
	FPGAClockHz = 200_000_000
	// CycleTime is the duration of one FPGA cycle (5 ns).
	CycleTime = time.Duration(1e9/FPGAClockHz) * time.Nanosecond
)

// pageReadCycles is the untyped Cpage constant, shared by the typed
// PageReadCycles below and the constant-folded TPage duration.
const pageReadCycles = 4000

// Emulated SSD settings, Table II.
const (
	// SSDCapacityBytes is the emulated SSD capacity (32 GB).
	SSDCapacityBytes = 32 << 30
	// NumChannels is the number of flash channels.
	NumChannels = 4
	// DiesPerChannel is the number of dies (LUNs) per channel. The paper
	// stripes embedding-vector reads "over all flash channels and dies"
	// but does not publish the die count; with three dies per channel the
	// flush phases of consecutive vector reads overlap to an effective
	// ~933 cycles/vector/channel, which simultaneously reproduces the
	// paper's measured RM-SSD plateaus: ~1.3K QPS on RMC1, ~230 QPS on
	// RMC2, the Fig. 12(c) batch-4 crossover on RMC3, ~230K QPS on NCF
	// and ~33K QPS on WnD.
	DiesPerChannel = 3
	// PlanesPerDie is the number of planes per die.
	PlanesPerDie = 2
	// PagesPerBlock is the number of pages in an erase block.
	PagesPerBlock = 256
	// PageSize is the flash page size in bytes (Table II uses the 4 KB
	// minimum; Section V-B: "the page size is set to a minimum of 4KB").
	PageSize = 4096
	// Random4KIOPS is the calibrated random-read throughput of the block
	// path (Table II: 45K IOPS).
	Random4KIOPS = 45_000
)

// PageReadCycles is Cpage, the whole-page read delay (Table II:
// 4000 cycles = 20 us at 5 ns/cycle). Typed sim.Cycles: cycle counts do not
// mix with time.Duration without an explicit, lint-checked conversion.
const PageReadCycles sim.Cycles = pageReadCycles

// TPage is the flash page read latency (Table II: 20 us).
const TPage = pageReadCycles * CycleTime

// Flash timing split, Section V-A: "Tpage can be divided into flash buffer
// flush Tflush and data transfer Ttrans. The ratio of Tflush and Ttrans is
// normally around 7:3".
const (
	FlushFraction    = 0.7
	TransferFraction = 0.3
)

// EVReadCycles returns C_EV, the delay in FPGA cycles for a vector-grained
// read of evSize bytes (Table II: 0.293*EVsize + 2800 cycles).
//
// Derivation (Section V-A): Tev = EVsize/Psize*Ttrans + Tflush with
// Ttrans = 0.3*Tpage = 1200 cycles and Tflush = 0.7*Tpage = 2800 cycles,
// so C_EV = 1200/4096*EVsize + 2800 = 0.293*EVsize + 2800.
func EVReadCycles(evSize int) sim.Cycles {
	return sim.Cycles(float64(evSize)*TransferFraction*pageReadCycles/PageSize) + FlushCycles
}

// FlushCycles and page-transfer cycles derived from Table II.
const (
	// FlushCycles is the die-side buffer flush time in cycles (0.7*Cpage).
	FlushCycles sim.Cycles = pageReadCycles * 7 / 10
	// PageTransferCycles is the channel-bus occupancy of a full-page
	// transfer in cycles (0.3*Cpage).
	PageTransferCycles sim.Cycles = pageReadCycles * 3 / 10
)

// VectorTransferCycles returns the channel-bus occupancy, in cycles, of a
// vector-grained transfer of evSize bytes: EVsize/Psize * Ttrans.
func VectorTransferCycles(evSize int) sim.Cycles {
	c := sim.Cycles(evSize) * PageTransferCycles / PageSize
	if c < 1 {
		c = 1
	}
	return c
}

// FTLCycles is the per-request address-translation cost of the FTL in FPGA
// cycles. The linear mapping of Section V-A is a shift and an add.
const FTLCycles sim.Cycles = 4

// MMIO and DMA costs, Section VI-C: "the time overhead is negligible with
// only less than tens of microseconds (less than 1%) for each inference".
const (
	// MMIORegisterAccess is the host cost of one RM-register MMIO access.
	MMIORegisterAccess = 1 * time.Microsecond
	// MMIODataWidth is the width of one MMIO transfer (Table IV footnote:
	// "it only reads 64 bytes (MMIO data-width) returned").
	MMIODataWidth = 64
	// DMASetup is the fixed cost of initiating one DMA transfer.
	DMASetup = 4 * time.Microsecond
	// DMABandwidth is the host<->SSD DMA bandwidth in bytes/second
	// (PCIe gen3 x16 class, far from the bottleneck for parameter blocks).
	DMABandwidth = 8e9
)

// Host-side cost model. Calibrated against Fig. 2's DRAM-only column:
// RMC3 (12.23 MB of MLP weights, ~6.4 MFLOP/inference) runs 1K inferences
// in 2.7-3.9 s, i.e. ~2.4 GFLOP/s effective through the framework, and
// RMC1's embedding-dominated DRAM time of ~1.4 ms/inference decomposes into
// per-lookup gather cost plus framework overhead.
const (
	// CPUFLOPS is the effective host floating-point rate for MLP layers
	// (framework-inclusive, single inference stream).
	CPUFLOPS = 2.4e9
	// CPUPeakFLOPS is the batched (OpenMP/vectorised) host rate reached
	// once a batch saturates the cores.
	CPUPeakFLOPS = 50e9
	// CPULayerOverhead is the fixed per-FC-layer framework dispatch cost.
	CPULayerOverhead = 20 * time.Microsecond
	// CPULookupCost is the host cost of gathering one embedding vector
	// that is already resident in application memory (DRAM baseline) or
	// the page cache, excluding the per-element accumulate below.
	CPULookupCost = 300 * time.Nanosecond
	// CPULookupCostBatched is the amortised per-lookup cost once the
	// SparseLengthsSum runs over a large batch with OpenMP. Together
	// with CPUBatchOverhead this reproduces Fig. 2's DRAM columns and
	// Fig. 12's annotated DRAM throughputs (e.g. RMC1: 2/(1.2ms+2*30us)
	// = ~1600 QPS at batch 2, matching the paper's 1613).
	CPULookupCostBatched = 40 * time.Nanosecond
	// CPUAccumulateElemsPerNanosecond is the vectorised float32
	// accumulate rate during SparseLengthsSum pooling (4 elems/ns ~
	// 16 GB/s of SIMD adds).
	CPUAccumulateElemsPerNanosecond = 4
	// CPUConcatCostPerNanosecondBytes: feature-interaction concatenation
	// moves 4 bytes per nanosecond on the host (~4 GB/s memcpy through
	// the framework).
	CPUConcatBytesPerNanosecond = 4
	// CPUInferenceOverhead is the fixed per-batch-iteration framework
	// cost (Python dispatch, operator scheduling). Fig. 2's DRAM batch-1
	// column (~1.4 ms per inference on RMC1, mostly framework) pins it.
	CPUInferenceOverhead = 1200 * time.Microsecond
)

// Host I/O stack cost model (the emb-fs / emb-ssd split of Fig. 2).
const (
	// PageCacheHitCost is the host-side cost of a read(2) satisfied by
	// the page cache: syscall entry, lookup, 4 KiB copy-out.
	PageCacheHitCost = 2 * time.Microsecond
	// PageCacheMissOverhead is the host-side I/O-stack cost added to the
	// device time on a page-cache miss: block layer, request setup,
	// completion, page insertion. Calibrated so SSD-S lands at Fig. 2
	// magnitudes with the ~45-55 % miss ratios the limited cache yields.
	PageCacheMissOverhead = 40 * time.Microsecond
	// MMIOPageFetchCost is the host-side cost of fetching one page
	// through the MMIO window, bypassing the file system (EMB-MMIO):
	// no page-cache machinery, just the mapped copy.
	MMIOPageFetchCost = 1 * time.Microsecond
)

// FPGA kernel-compute parameters, Section VI-D.
const (
	// KernelII is the initiation interval for the MM kernel pipeline
	// ("The II for kernel computing is 8").
	KernelII = 8
	// KMax bounds kernel dimensions to powers of two up to 2^KMax
	// (Rule Three's search space; 16x16 is the largest default kernel).
	KMax = 4
)

// FPGA resource budgets, Table VI.
type FPGAPart struct {
	Name string
	LUT  int
	FF   int
	BRAM float64 // 36 Kb blocks
	DSP  int
}

// XCVU9P is the evaluation card's FPGA (Virtex UltraScale+).
var XCVU9P = FPGAPart{Name: "XCVU9P", LUT: 1_181_768, FF: 2_363_536, BRAM: 2160, DSP: 6840}

// XC7A200T is the low-end Artix-7 part the paper targets for an enterprise
// SSD controller.
var XC7A200T = FPGAPart{Name: "XC7A200T", LUT: 215_360, FF: 269_200, BRAM: 365, DSP: 740}

// Per-unit FPGA resource costs for the fp32 arithmetic units, calibrated so
// the engine totals land at Table VI's order: an fp32 multiplier and adder
// pair (one PE) costs roughly 800 LUT / 300 FF / 3 DSP, and each kernel
// holds weights in BRAM per Rule One.
const (
	LUTPerFMul = 500
	LUTPerFAdd = 300
	FFPerFMul  = 190
	FFPerFAdd  = 110
	// ControlLUTPerLayer covers the per-layer stream control, scan
	// counters and buffering logic.
	ControlLUTPerLayer = 2000
	ControlFFPerLayer  = 800
	// BRAMBytes is the usable capacity of one BRAM block in bytes
	// (36 Kb = 4.5 KB).
	BRAMBytes = 4608
	// DRAMDataWidthBytes is Dwidth, the off-chip DRAM bit-width in bytes
	// (Section V: "64GB off-chip DDR4 with 64-byte data width").
	DRAMDataWidthBytes = 64
)

// Trace locality targets, Fig. 14: "K=0,1,2 indicate locality distribution
// with 80%, 45%, and 30% hit ratio respectively. The locality of default
// synthetic input trace is 65% with K=0.3."
var LocalityHitRatio = map[float64]float64{
	0:   0.80,
	0.3: 0.65,
	1:   0.45,
	2:   0.30,
}

// DefaultLocalityK is the K of the default synthetic input trace.
const DefaultLocalityK = 0.3

// Device-DRAM EV cache timing. The controller's off-chip DDR4 (Section V:
// "64GB off-chip DDR4 with 64-byte data width") can hold the hot embedding
// vectors the trace analysis of Section III-B2 identifies; a hit then costs a
// tag lookup plus ceil(EVsize/Dwidth) burst beats on the DRAM port instead of
// a C_EV flash read (0.293*EVsize + 2800 cycles) — roughly 350x cheaper for a
// 128 B vector. The cache is off by default; when enabled it only removes
// flash reads, so calibration of the flash path itself is untouched.
const (
	// EVCacheLookupCycles is the tag/index lookup cost of the device-DRAM
	// EV cache (a hash probe in controller SRAM).
	EVCacheLookupCycles sim.Cycles = 4
)

// EVCacheHitCycles returns the total service time, in FPGA cycles, of one EV
// cache hit of evSize bytes: tag lookup plus the DRAM burst transfer at
// Dwidth bytes per cycle.
func EVCacheHitCycles(evSize int) sim.Cycles {
	beats := sim.Cycles((evSize + DRAMDataWidthBytes - 1) / DRAMDataWidthBytes)
	if beats < 1 {
		beats = 1
	}
	return EVCacheLookupCycles + beats
}

// Read-fault injection timing (off by default; see flash.FaultPlan). NAND
// read errors are serviced by an ECC retry loop in the controller: each
// failed attempt re-reads the page with adjusted read-reference voltages, so
// it costs one extra decode pass plus another cell-array flush on the die.
// After MaxReadRetries consecutive failures the sector is reported
// uncorrectable and the read fails with a typed error.
const (
	// ECCRetryCycles is the controller-side decode/voltage-adjust cost of
	// one failed ECC attempt, charged on the die before the re-flush.
	ECCRetryCycles sim.Cycles = 300
	// MaxReadRetries bounds the retry loop (attempts = 1 + MaxReadRetries).
	MaxReadRetries = 8
)

// EVSumLanes is the number of parallel fp32 adder lanes in the EV Sum unit.
// Each dimension of an embedding vector is independent (Section IV-B3), so
// the unit accumulates a full vector in ceil(dim/EVSumLanes) cycles.
const EVSumLanes = 16

// Duration converts a typed cycle count to simulated time at the repo-wide
// FPGA clock. It is the blessed bridge from the cycle domain into the
// duration domain (sim.Cycles.Duration with the clock already applied).
func Duration(c sim.Cycles) time.Duration { return c.Duration(CycleTime) }

// NVMe block-path costs. Calibrated so QD1 random 4K reads land at the
// Table II rate: Tpage (20us) + command processing + completion = 22.2us
// per op = ~45K IOPS.
const (
	// NVMeCmdCost is the controller-side command fetch/decode/dispatch
	// cost, serialized on the NVMe controller.
	NVMeCmdCost = 1 * time.Microsecond
	// NVMeCompletionCost is the completion/interrupt path cost added to
	// each block request's latency.
	NVMeCompletionCost = 1200 * time.Nanosecond
)

// Additional FPGA unit calibration (Table VI shapes). A processing element
// (PE) is one fp32 multiplier plus one adder; kernel reuse over the II
// cycles divides the *instantiated* unit count by II (Section IV-C1).
const (
	// DSPPerPEUnit is the DSP cost of one instantiated fmul+fadd unit.
	DSPPerPEUnit = 3
	// FixedDSPPerLayer covers per-layer address generation and stream
	// control DSP usage.
	FixedDSPPerLayer = 4
)

// Naive (Centaur-style) systolic-array PE costs: the conventional MM design
// without the II-cycle unit reuse of Section IV-C1. One MAC PE implemented
// mostly in fabric: these values reproduce Table VI's MLP-naive RMC1 row
// (1536 PEs -> ~154K LUT, ~58K FF, ~614 DSP) almost exactly.
const (
	LUTPerNaivePE = 100
	FFPerNaivePE  = 38
	// DSPPerNaivePE is fractional (0.4): expressed as a ratio.
	DSPNaiveNum = 2
	DSPNaiveDen = 5
)

// Output-accumulator costs: row-scanning layers keep one fp32 partial sum
// per output column (Fig. 9), costing fabric proportional to the layer
// width.
const (
	AccumLUTPerOutput = 12
	AccumFFPerOutput  = 16
)

// DRAMRateConverterLUT is the fabric cost of rate-conversion buffering and
// PE-distribution networks for a DRAM-resident layer whose kernel does not
// match the interface geometry of Rule Two (kr = Dwidth words, kc = II).
// The searched design avoids this cost by construction; the naive GEMM
// design pays it per spilled layer.
const DRAMRateConverterLUT = 30000

// RecSSDFirmwarePageOverhead is the per-page firmware processing cost of
// the RecSSD re-implementation. RecSSD's in-storage pooling runs as ARM
// firmware on an OpenSSD-class platform: each channel serves one page
// request at a time, synchronously (no die-level pipelining), so a page
// costs Tpage plus this overhead on its channel. This reproduces the
// paper's measured RecSSD throughputs (e.g. ~700 QPS on RMC1, ~130 QPS on
// RMC2, ~16K QPS on NCF).
const RecSSDFirmwarePageOverhead = 2200 * time.Nanosecond

// TErase is the NAND block erase time (~2 ms for typical TLC/MLC parts);
// the dynamic FTL's garbage collector charges it per victim block.
const TErase = 2 * time.Millisecond

// Multi-device array interconnect (internal/array). When one model's
// embedding tables are partitioned across N member devices, each non-top
// member ships its per-(inference, table) partial SLS sums to the
// designated top-MLP device at gather time. The hop is priced like a DMA:
// a fixed descriptor/doorbell setup plus bytes over the peer link.
const (
	// ArrayTransferSetup is the fixed cost of one member->top gather hop
	// (peer DMA descriptor plus doorbell through the host's PCIe switch).
	ArrayTransferSetup = 2 * time.Microsecond
	// ArrayTransferBandwidth is the inter-device transfer bandwidth in
	// bytes/second. Host-bounced peer-to-peer over the same PCIe fabric as
	// the host DMA path, so the same order of magnitude as DMABandwidth.
	ArrayTransferBandwidth = 8e9
)

// TimingFingerprint hashes every calibration constant that feeds the
// simulated timelines into one FNV-1a value. The golden conformance suite
// (internal/conformance) records it next to its pinned checksums: when a
// checksum moves, the fingerprint distinguishes a conscious recalibration
// (fingerprint moved too; every simulated number is expected to change)
// from a behavioural regression under unchanged calibration.
//
// Any constant added to the timing model should be mixed in here; the
// conformance goldens then refuse to pass until they are regenerated and
// reviewed against the new calibration.
func TimingFingerprint() uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	mixF := func(f float64) { mix(uint64(float64(f * 1e6))) }
	for _, v := range []uint64{
		// FPGA clock.
		FPGAClockHz, uint64(CycleTime),
		// Table II flash geometry and delays.
		SSDCapacityBytes, NumChannels, DiesPerChannel, PlanesPerDie,
		PagesPerBlock, PageSize, Random4KIOPS,
		uint64(PageReadCycles), uint64(TPage),
		uint64(FlushCycles), uint64(PageTransferCycles), uint64(FTLCycles),
		// Host interface.
		uint64(MMIORegisterAccess), MMIODataWidth, uint64(DMASetup),
		// Host CPU cost model.
		uint64(CPULayerOverhead), uint64(CPULookupCost),
		uint64(CPULookupCostBatched), CPUAccumulateElemsPerNanosecond,
		CPUConcatBytesPerNanosecond, uint64(CPUInferenceOverhead),
		// Host I/O stack.
		uint64(PageCacheHitCost), uint64(PageCacheMissOverhead),
		uint64(MMIOPageFetchCost),
		// FPGA kernel model.
		KernelII, KMax, BRAMBytes, DRAMDataWidthBytes, EVSumLanes,
		// Device-DRAM EV cache.
		uint64(EVCacheLookupCycles),
		// Read-fault retry model.
		uint64(ECCRetryCycles), MaxReadRetries,
		// NVMe block path and baselines.
		uint64(NVMeCmdCost), uint64(NVMeCompletionCost),
		uint64(RecSSDFirmwarePageOverhead), uint64(TErase),
		// Multi-device array interconnect.
		uint64(ArrayTransferSetup),
	} {
		mix(v)
	}
	for _, f := range []float64{
		FlushFraction, TransferFraction, DMABandwidth,
		CPUFLOPS, CPUPeakFLOPS, DefaultLocalityK,
		ArrayTransferBandwidth,
	} {
		mixF(f)
	}
	return h
}
