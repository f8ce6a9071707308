package sim

import (
	"fmt"
	"time"
)

// ByteRate is a data rate in bytes per simulated second.
//
// Like Cycles, it is a distinct named type so the repository's bandwidth
// figures (flash vector-read bandwidth, DMA rates, internal read bandwidth)
// cannot be mixed with bare float64 scalars by accident: a raw float64
// carries no unit, and dividing vectors by bytes/second instead of
// vectors/second is exactly the class of silent error that corrupts every
// derived figure. The `units` analyzer of internal/lint rejects raw
// float64(r)/ByteRate(x) conversions outside this package; the blessed
// bridges are RateOver (measurement -> rate) and the accessor methods below
// (rate -> scalar, each naming its unit).
type ByteRate float64

// RateOver returns the rate of moving n bytes in d of simulated time. It is
// the canonical constructor: every measured bandwidth figure should be
// produced here, keeping the bytes/seconds pairing in one audited place.
func RateOver(n int64, d time.Duration) ByteRate {
	if d <= 0 {
		return 0
	}
	// The canonical bytes/duration -> ByteRate bridge lives here; package
	// sim is the units analyzer's blessed home for conversions.
	return ByteRate(float64(n) / d.Seconds())
}

// BytesPerSecond returns the rate as a bare float64 in bytes/second.
func (r ByteRate) BytesPerSecond() float64 {
	// The canonical ByteRate -> scalar bridge lives here; package sim is
	// the units analyzer's blessed home for conversions.
	return float64(r)
}

// MBPerSecond returns the rate in decimal megabytes per second.
func (r ByteRate) MBPerSecond() float64 { return r.BytesPerSecond() / 1e6 }

// UnitsPerSecond returns the rate in fixed-size units (e.g. embedding
// vectors of unitBytes) per second: the form Eq. 1a's bEV takes.
func (r ByteRate) UnitsPerSecond(unitBytes int) float64 {
	if unitBytes <= 0 {
		panic(fmt.Sprintf("sim: non-positive unit size %d", unitBytes))
	}
	return r.BytesPerSecond() / float64(unitBytes)
}
