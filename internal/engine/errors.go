package engine

import (
	"errors"
	"fmt"
)

// Input-dependent failures are errors, not panics: the paper's host runtime
// (Section IV-D) is an OS-mediated interface where a malformed request must
// fail the *call*, never the device. A trace-driven request can carry any
// row index or shape, so everything reachable from request payloads returns
// a typed error that the serving stack threads back to the caller. Panics
// remain only for programmer invariants — address-math bugs, broken MSHR
// bookkeeping — which no request can trigger.
var (
	// ErrRowOutOfRange marks a lookup whose (table, row) is not covered by
	// the registered embedding extents.
	ErrRowOutOfRange = errors.New("engine: embedding lookup out of range")
	// ErrShapeMismatch marks inputs whose shape disagrees with the model
	// configuration (wrong table count, empty batch, wrong dense width).
	ErrShapeMismatch = errors.New("engine: input shape mismatch")
)

// ValidateLookups checks a coalesced batch of sparse inputs against the
// model shape and the translator's extent coverage without touching any
// timing state: callers can reject a bad request before the device sees it.
func (e *LookupEngine) ValidateLookups(sparses [][][]int64) error {
	cfg := e.st.Model().Cfg
	if len(sparses) == 0 {
		return fmt.Errorf("engine: empty lookup batch: %w", ErrShapeMismatch)
	}
	for i, sparse := range sparses {
		if len(sparse) != cfg.Tables {
			return fmt.Errorf("engine: inference %d: %d sparse inputs, want %d: %w",
				i, len(sparse), cfg.Tables, ErrShapeMismatch)
		}
		for t, rows := range sparse {
			for _, row := range rows {
				if !e.tr.Covers(t, row) {
					return fmt.Errorf("engine: inference %d: row %d of table %d not covered by extents: %w",
						i, row, t, ErrRowOutOfRange)
				}
			}
		}
	}
	return nil
}
