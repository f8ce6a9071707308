package sim

import (
	"fmt"
	"time"
)

// Cycles is a count of discrete controller clock cycles (FPGA cycles in this
// repository, 5 ns each at the paper's 200 MHz clock).
//
// It is a distinct named type — not a time.Duration and not a bare int — so
// that the two unit systems of the paper's timing model (Table II cycle
// counts and wall-clock-shaped simulated durations) cannot be mixed by
// accident. The Go compiler rejects Cycles+Duration arithmetic outright, and
// the `units` analyzer of internal/lint additionally rejects raw
// time.Duration(c)/Cycles(d) conversions: the only blessed bridges between
// the two worlds are Cycles.Duration and DurationToCycles below (and the
// params.Duration convenience wrapper, which fixes the clock).
type Cycles int64

// Duration converts the cycle count to simulated time at the given cycle
// time (the duration of one clock cycle).
func (c Cycles) Duration(cycleTime time.Duration) time.Duration {
	// The canonical Cycles<->Duration bridge lives here; package sim is
	// the units analyzer's blessed home for conversions.
	return time.Duration(c) * cycleTime
}

// DurationToCycles converts a simulated duration to whole cycles at the
// given cycle time, truncating toward zero (a sub-cycle remainder is lost).
func DurationToCycles(d, cycleTime time.Duration) Cycles {
	if cycleTime <= 0 {
		panic(fmt.Sprintf("sim: non-positive cycle time %v", cycleTime))
	}
	// The canonical Cycles<->Duration bridge lives here; package sim is
	// the units analyzer's blessed home for conversions.
	return Cycles(d / cycleTime)
}

// Times scales the cycle count by a dimensionless factor (e.g. batch waves).
// It exists so call sites do not need a bare Cycles(n) conversion, which the
// units analyzer treats with suspicion.
func (c Cycles) Times(n int64) Cycles { return c * Cycles(n) }

// MaxCycles returns the larger of two cycle counts.
func MaxCycles(a, b Cycles) Cycles {
	if a > b {
		return a
	}
	return b
}
