package serving

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"rmssd/internal/trace"
)

// fuzzCriteoSeedTSV returns a small valid synthetic Criteo TSV so the
// fuzzer starts from a parseable stream rather than discovering the format
// from scratch.
func fuzzCriteoSeedTSV(f *testing.F) []byte {
	f.Helper()
	gen, err := trace.NewGenerator(trace.Config{Tables: 4, Rows: 97, Lookups: 2, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.SynthesizeCriteoTSV(&buf, 7, gen); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCriteoSource drives the TSV-to-request adapter over arbitrary byte
// streams and shape parameters. The contract: constructors reject
// unservable shapes with an error, malformed TSV surfaces as an error from
// Next (never a panic), and every request that IS produced has exactly the
// model's shape with all row indices in range.
func FuzzCriteoSource(f *testing.F) {
	f.Add(fuzzCriteoSeedTSV(f), uint8(5), uint8(3), uint8(14), uint8(3), uint16(98))
	f.Add([]byte{}, uint8(2), uint8(2), uint8(2), uint8(2), uint16(10))
	f.Add([]byte("not a tsv\n\n1\t2\t3\n"), uint8(3), uint8(2), uint8(4), uint8(2), uint16(50))
	f.Add([]byte("1"+strings.Repeat("\t", 39)+"\n"), uint8(1), uint8(1), uint8(1), uint8(1), uint16(1))
	f.Add([]byte("0\t5"+strings.Repeat("\t", 38)+"deadbeef\n"), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, tb, lk, dd, bt uint8, rw uint16) {
		// Map the raw fuzz bytes onto small shape parameters whose range
		// includes non-positive values, so the rejection paths stay covered
		// while accepted shapes remain cheap to drain.
		tables := int(tb%12) - 1   // -1..10
		lookups := int(lk%12) - 1  // -1..10
		denseDim := int(dd%20) - 1 // -1..18
		batch := int(bt%8) - 1     // -1..6
		rows := int64(rw%512) - 1  // -1..510

		p, err := trace.NewCriteoParser(bytes.NewReader(data), rows)
		if err != nil {
			if rows > 0 {
				t.Fatalf("parser rejected positive row space %d: %v", rows, err)
			}
			return
		}
		src, err := NewCriteoSource(p, tables, lookups, denseDim, batch)
		if err != nil {
			if tables > 0 && lookups > 0 && denseDim >= 0 && batch > 0 {
				t.Fatalf("source rejected servable shape %dx%d dense=%d batch=%d: %v",
					tables, lookups, denseDim, batch, err)
			}
			return
		}
		// A valid Criteo line is at least 40 bytes (label plus 39 tabs), and
		// every request consumes at least one line, which bounds how many
		// requests any input can legitimately yield.
		maxRequests := len(data)/40 + 2
		for n := 0; n < maxRequests; n++ {
			req, err := src.Next()
			if err == io.EOF {
				if _, err := src.Next(); err != io.EOF {
					t.Fatalf("source resurrected after EOF: %v", err)
				}
				return
			}
			if err != nil {
				return // malformed TSV: rejected with an error, as required
			}
			if !req.Explicit() {
				t.Fatal("criteo source produced a count-only request")
			}
			if len(req.Sparse) == 0 || len(req.Sparse) > batch {
				t.Fatalf("request carries %d inferences, batch limit %d", len(req.Sparse), batch)
			}
			if len(req.Dense) != len(req.Sparse) {
				t.Fatalf("%d dense vectors for %d inferences", len(req.Dense), len(req.Sparse))
			}
			for i, inf := range req.Sparse {
				if len(inf) != tables {
					t.Fatalf("inference %d has %d tables, want %d", i, len(inf), tables)
				}
				for ti, idx := range inf {
					if len(idx) != lookups {
						t.Fatalf("inference %d table %d has %d lookups, want %d", i, ti, len(idx), lookups)
					}
					for _, row := range idx {
						if row < 0 || row >= rows {
							t.Fatalf("inference %d table %d row %d outside [0,%d)", i, ti, row, rows)
						}
					}
				}
				if len(req.Dense[i]) != denseDim {
					t.Fatalf("inference %d dense dim %d, want %d", i, len(req.Dense[i]), denseDim)
				}
			}
		}
		t.Fatalf("source produced over %d requests from %d input bytes", maxRequests, len(data))
	})
}
