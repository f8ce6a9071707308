//go:build simdebug

package evcache

import "fmt"

// Debug reports whether the simdebug runtime-invariant layer is compiled in.
const Debug = true

// debugIndex asserts the hash index agrees with the slab after every
// insertion and removal (see indexErr). A key its chain cannot reach would
// turn a resident entry into a miss and a second copy; a free slot left on
// a chain would let a later lookup hit whatever the slot holds next.
func debugIndex(l *LRU) {
	if err := l.indexErr(); err != nil {
		panic(fmt.Sprintf("evcache: invariant violated: %v", err))
	}
}
