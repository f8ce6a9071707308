//go:build !simdebug

package sim

// Debug reports whether the simdebug runtime-invariant layer is compiled in.
// Build with `-tags simdebug` to enable it.
const Debug = false

// debugAcquire is a no-op in normal builds; the compiler removes the call.
func debugAcquire(r *Resource, at, start, end, prevFree Time) {}
