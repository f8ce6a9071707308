// Package lint is rmssd's domain-aware static-analysis suite, built on the
// standard library's go/parser, go/ast and go/types only (the module stays
// dependency-free).
//
// The repository's scientific value rests on properties the Go compiler
// cannot check by itself:
//
//   - determinism: no simulation result may depend on the wall clock or an
//     unseeded random source (`wallclock`);
//   - unit correctness: FPGA cycle counts (sim.Cycles) and simulated
//     durations (time.Duration) are distinct unit systems that may only be
//     bridged through the blessed converters (`units`);
//   - error hygiene: discarded error returns hide layout and I/O failures
//     that silently corrupt experiments (`errcheck`);
//   - diagnosability: panic messages must identify the originating package
//     (`panicmsg`).
//
// The v2 pack extends the suite past single-expression patterns with a
// small intra-function dataflow engine (dataflow.go) and four more
// analyzers:
//
//   - ordering: map iteration must not feed order-sensitive sinks —
//     output, escaping unsorted accumulations, channel sends, folds
//     (`mapiter`);
//   - spawn discipline: every goroutine in the concurrent core needs a
//     visible join or cancellation path (`goroutine`);
//   - mutex discipline: no Lock without a dominating release, no channel
//     sends while a lock is held (`locks`; go vet's copylocks catches lock
//     copies);
//   - suppression hygiene: every //lint:allow directive must still
//     suppress something (`allowaudit`).
//
// Run the suite with `go run ./cmd/rmlint ./...` (or `-json` for the CI
// form).
//
// # Suppressing a diagnostic
//
// A finding that is intentional — e.g. host-side wall-clock measurement in
// cmd/rmbench — is suppressed with a directive comment on the offending
// line or the line directly above it:
//
//	//lint:allow wallclock measures real host time, not simulated time
//	start := time.Now()
//
// The directive names the analyzer and must carry a reason; a reasonless
// directive is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name is the identifier used in diagnostics and //lint:allow.
	Name string
	// Run inspects one type-checked package and reports findings.
	Run func(p *Package) []Diagnostic
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic as path:line:col: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package handed to analyzers.
type Package struct {
	// Path is the import path ("rmssd/internal/sim") or a loader-assigned
	// pseudo path for fixtures.
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset positions all files of the load.
	Fset *token.FileSet
	// Files are the parsed sources, comments included.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries identifier resolution and expression types.
	Info *types.Info
}

// IsCommand reports whether the package is a main package.
func (p *Package) IsCommand() bool { return p.Types != nil && p.Types.Name() == "main" }

// Position resolves a token.Pos against the package's file set.
func (p *Package) Position(pos token.Pos) token.Position { return p.Fset.Position(pos) }

// Diag constructs a diagnostic at pos for the given analyzer.
func (p *Package) Diag(analyzer string, pos token.Pos, format string, args ...interface{}) Diagnostic {
	return Diagnostic{Pos: p.Position(pos), Analyzer: analyzer, Message: fmt.Sprintf(format, args...)}
}

// All returns the full analyzer suite in stable order: the v1 pattern
// checks first, then the v2 dataflow-backed determinism/concurrency pack,
// then the suppression audit.
func All() []*Analyzer {
	return []*Analyzer{Wallclock, Units, Errcheck, Panicmsg, Mapiter, Goroutine, Locks, AllowAudit}
}

// Run applies the analyzers to the packages, filters suppressed findings
// through //lint:allow directives, and returns the surviving diagnostics
// sorted by position. Malformed directives are reported as diagnostics of
// the pseudo-analyzer "directive".
//
// When allowaudit is among the analyzers, a post-pass per package reports
// every directive that suppressed nothing — restricted to directives
// naming analyzers that actually ran, since only those can be judged
// stale. Audit findings are themselves suppressible with
// //lint:allow allowaudit <reason>, which is the "re-justify in place"
// mechanism for directives that fire only under other build
// configurations.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	audit := false
	sel := map[string]bool{}
	for _, a := range analyzers {
		sel[a.Name] = true
		if a == AllowAudit {
			audit = true
		}
	}
	var out []Diagnostic
	for _, p := range pkgs {
		ix, bad := collectDirectives(p)
		out = append(out, bad...)
		for _, a := range analyzers {
			if a == AllowAudit {
				continue // runs as the post-pass below
			}
			for _, d := range a.Run(p) {
				if ix.allows(d.Analyzer, d.Pos) {
					continue
				}
				out = append(out, d)
			}
		}
		if !audit {
			continue
		}
		for _, d := range ix.unused(sel) {
			diag := Diagnostic{
				Pos:      d.pos,
				Analyzer: AllowAudit.Name,
				Message: fmt.Sprintf("stale //lint:allow %s: no %s finding here anymore — delete it or re-justify with //lint:allow allowaudit <reason>",
					d.analyzer, d.analyzer),
			}
			if ix.allows(AllowAudit.Name, diag.Pos) {
				continue
			}
			out = append(out, diag)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}
