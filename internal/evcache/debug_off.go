//go:build !simdebug

package evcache

// Debug reports whether the simdebug runtime-invariant layer is compiled in.
// Build with `-tags simdebug` to enable it.
const Debug = false

// debugIndex is a no-op in normal builds; the compiler removes the call.
func debugIndex(l *LRU) {}
