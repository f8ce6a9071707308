//go:build linux || darwin

package model

import (
	"runtime/debug"
	"testing"

	"rmssd/internal/tensor"
)

// DESIGN §16's read-only rule, enforced by the hardware on the resident
// path: a write to a resident model's weights, through its own matrix or
// through the SplitCols view the MLP engine decomposes top L0 into, faults.
func TestResidentWeightsAreReadOnly(t *testing.T) {
	cfg := RMC3()
	m, err := BuildResident(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, embHalf := m.Top[0].W.SplitCols(cfg.BottomOutDim())
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for _, tc := range []struct {
		name string
		w    *tensor.Matrix
	}{
		{"bottom L0", m.Bottom[0].W},
		{"top L0 SplitCols view", embHalf},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: write to a resident weight did not fault", tc.name)
				}
			}()
			tc.w.Set(0, 0, 1)
		}()
	}
	if got := m.Bottom[0].W.At(0, 0); got == 1 {
		t.Fatalf("bottom L0 weight changed to %v", got)
	}
}
