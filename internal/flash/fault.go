package flash

import (
	"errors"
	"fmt"
	"time"

	"rmssd/internal/params"
)

// Read-fault injection. NAND reads fail probabilistically in real parts;
// the controller's ECC engine retries with adjusted read-reference voltages
// and, after a bounded number of attempts, reports the sector uncorrectable.
// The serving stack must contain such a failure to the one inference that
// touched the bad row (Section IV-D: a bad request fails a call, not the
// device), so the simulator models it as a first-class, deterministic event:
// a seeded per-channel fault stream decides, for every vector read, how many
// ECC retries it pays and whether it ultimately fails.
//
// Determinism: faults are sampled from a per-channel splitmix64 stream at
// vector-read time, and every caller issues a channel's reads in one fixed
// order, so the draw sequence — and with it every simulated timeline and
// error — is byte-identical across shard counts and reruns. With the plan disabled (the default)
// no stream is consulted and the timing path is exactly the pre-fault one.

// ErrUncorrectable is the sentinel for a vector read that exhausted its ECC
// retry budget. Wrapped errors carry channel/die/retry context; match with
// errors.Is.
var ErrUncorrectable = errors.New("flash: uncorrectable read")

// FaultPlan configures deterministic read-fault injection. The zero value
// disables injection entirely.
type FaultPlan struct {
	// Rate is the per-attempt probability that a vector read's flush fails
	// ECC decode, in [0, 1). Each retry re-draws independently.
	Rate float64
	// Seed keys the per-channel fault streams; the same seed reproduces
	// the same fault sequence on every run.
	Seed uint64
}

// Enabled reports whether the plan injects any faults.
func (p FaultPlan) Enabled() bool { return p.Rate > 0 }

// Validate rejects rates outside [0, 1), NaN included. A rate of 1 would
// make every read uncorrectable and is almost certainly a misconfiguration.
func (p FaultPlan) Validate() error {
	if !(p.Rate >= 0 && p.Rate < 1) {
		return fmt.Errorf("flash: fault rate %v outside [0, 1)", p.Rate)
	}
	return nil
}

// SetFaultPlan installs a fault plan, seeding one independent splitmix64
// stream per channel. Call it before issuing reads; installing a plan
// mid-run would change the draw alignment and with it determinism.
func (a *Array) SetFaultPlan(p FaultPlan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	a.fault = p
	a.faultRNG = nil
	if p.Enabled() {
		a.faultRNG = make([]uint64, a.geo.Channels)
		for ch := range a.faultRNG {
			// Decorrelate channels: distinct odd offsets into the
			// splitmix64 sequence keyed by the plan seed.
			a.faultRNG[ch] = p.Seed ^ (uint64(ch)+1)*0x9e3779b97f4a7c15
		}
	}
	return nil
}

// FaultPlan returns the installed plan (zero value when disabled).
func (a *Array) FaultPlan() FaultPlan { return a.fault }

// faultDraw advances channel ch's splitmix64 stream and returns a uniform
// draw in [0, 1).
func (a *Array) faultDraw(ch int) float64 {
	a.faultRNG[ch] += 0x9e3779b97f4a7c15
	z := a.faultRNG[ch]
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// sampleVectorFaults draws one vector read's fault outcome on channel ch:
// the number of failed ECC attempts before success, and whether the read
// exhausted its 1+MaxReadRetries attempts and is uncorrectable.
func (a *Array) sampleVectorFaults(ch int) (retries int, uncorrectable bool) {
	if !a.fault.Enabled() {
		return 0, false
	}
	for k := 0; k <= params.MaxReadRetries; k++ {
		if a.faultDraw(ch) >= a.fault.Rate {
			return k, false
		}
	}
	return params.MaxReadRetries, true
}

// vectorFlushOccupancy converts a fault outcome into the die occupancy of
// the read's flush phase: one cell-array flush for the first attempt plus,
// per failed attempt, an ECC decode/voltage-adjust pass and a re-flush.
func (a *Array) vectorFlushOccupancy(retries int) time.Duration {
	occ := a.tFlush
	if retries > 0 {
		occ += time.Duration(retries) * (params.Duration(params.ECCRetryCycles) + a.tFlush)
	}
	return occ
}

// countVectorFaults folds a fault outcome into a stats snapshot. Each
// attempt flushes the full page again; only successful reads transfer bytes
// (accounted by the caller).
func countVectorFaults(st *Stats, pageSize, retries int, uncorrectable bool) {
	if retries == 0 && !uncorrectable {
		return
	}
	st.ReadFaults++
	st.ECCRetries += int64(retries)
	st.BytesFlushed += int64(retries) * int64(pageSize)
	if uncorrectable {
		st.Uncorrectable++
	}
}

// countChannelFaults folds one vector read's outcome into a channel's
// counters: every read counts, retries and uncorrectable verdicts only
// when injection produced them.
func countChannelFaults(c *ChannelCounters, retries int, uncorrectable bool) {
	c.Reads++
	c.Retries += int64(retries)
	if uncorrectable {
		c.Uncorrectable++
	}
}
