//go:build simdebug

package sim

import "fmt"

// Debug reports whether the simdebug runtime-invariant layer is compiled in.
const Debug = true

// debugAcquire asserts the FCFS scheduling invariants after every
// Resource.Acquire. These back the static guarantees of internal/lint with
// cheap dynamic checks: if unit-conversion or scheduling arithmetic ever
// produces a negative duration, a start before the arrival, or a
// non-monotone free pointer, the simulation is no longer a valid FCFS
// schedule and every downstream figure is suspect — so fail immediately.
//
//   - start >= at          (a request cannot start before it arrives)
//   - end >= start         (service takes non-negative time)
//   - nextFree monotone    (scheduling never rewinds the resource clock)
//   - busy >= 0 and busy never exceeds the time the resource has existed
func debugAcquire(r *Resource, at, start, end, prevFree Time) {
	if start < at {
		panic(fmt.Sprintf("sim: invariant violated on %s: start %v before arrival %v", r.name, start, at))
	}
	if end < start {
		panic(fmt.Sprintf("sim: invariant violated on %s: end %v before start %v", r.name, end, start))
	}
	if r.nextFree < prevFree {
		panic(fmt.Sprintf("sim: invariant violated on %s: nextFree rewound %v -> %v", r.name, prevFree, r.nextFree))
	}
	if r.busy < 0 {
		panic(fmt.Sprintf("sim: invariant violated on %s: negative busy time %v", r.name, r.busy))
	}
	if r.busy > r.nextFree {
		panic(fmt.Sprintf("sim: invariant violated on %s: busy %v exceeds horizon %v", r.name, r.busy, r.nextFree))
	}
}
