package perfcase

import (
	"runtime"
	"testing"
)

// BenchmarkCases times every case; `make bench-micro` runs it at
// -benchtime=100x -benchmem beside TestCeilings.
func BenchmarkCases(b *testing.B) {
	for _, c := range Cases {
		b.Run(c.Name, c.Bench)
	}
}

// ceilingRuns is the op count TestCeilings averages over, the
// -benchtime=100x of `make bench-micro`.
const ceilingRuns = 100

// TestCeilings runs each case's op ceilingRuns times and fails when its
// allocs/op or B/op, both floored means over the runs as -benchmem prints
// them, rises above the case's ceiling.
func TestCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so allocation counts are not the program's")
	}
	for _, c := range Cases {
		t.Run(c.Name, func(t *testing.T) {
			op := c.Setup(t)
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range ceilingRuns {
				op()
			}
			runtime.ReadMemStats(&after)
			allocs := int64(after.Mallocs-before.Mallocs) / ceilingRuns
			bytes := int64(after.TotalAlloc-before.TotalAlloc) / ceilingRuns
			if allocs > c.MaxAllocs {
				t.Errorf("%d allocs/op, ceiling %d", allocs, c.MaxAllocs)
			}
			if c.MaxBytes > 0 && bytes > c.MaxBytes {
				t.Errorf("%d B/op, ceiling %d", bytes, c.MaxBytes)
			}
		})
	}
}
