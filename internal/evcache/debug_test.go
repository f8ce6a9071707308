//go:build simdebug

package evcache

import "testing"

// The index invariants themselves are exercised by every package that
// drives a cache under -tags simdebug; this test pins down that Reserve and
// release actually run them (TestIndexErrCatchesCorruption covers what
// they catch).
func TestIndexInvariantFires(t *testing.T) {
	for _, name := range []string{"reserve", "release"} {
		t.Run(name, func(t *testing.T) {
			c := New(4*128, 128)
			c.Reserve(0, 1)
			c.Reserve(0, 2)
			c.lru.n++ // the chains now hold one slot fewer than the count
			defer func() {
				if recover() == nil {
					t.Fatalf("corrupted resident count not caught on %s", name)
				}
			}()
			if name == "reserve" {
				c.Reserve(0, 3)
			} else {
				c.Invalidate(0, 1)
			}
		})
	}
}
