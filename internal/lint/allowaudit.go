package lint

// AllowAudit reports every //lint:allow directive that no longer
// suppresses any finding.
//
// Suppressions rot: the code under a directive gets rewritten, the
// analyzer it names gets smarter, and the directive stays behind —
// asserting an exemption nothing needs. A stale directive is worse than
// dead weight: it pre-authorizes the next real finding on that line to
// pass unreviewed. This pass closes the loop so the directive inventory
// is exactly the set of live, justified exemptions.
//
// Unlike the other analyzers, allowaudit is not a per-package pattern
// check — staleness is only known after every selected analyzer has run
// over a package, which is why Run special-cases it: the directive index
// tracks which directives matched a finding, and the audit reports the
// remainder. The Run func below is accordingly a no-op; the Analyzer
// value exists so the pass is in All() and addressable by its own
// suppressions.
//
// A directive the audit flags is either deleted (the usual case) or
// re-justified in place by a companion directive:
//
//	//lint:allow allowaudit fires only under the simdebug build tag
//	//lint:allow wallclock debug-only latency probe
//
// Directives naming allowaudit itself are never audited — a suppression
// of the auditor is a statement about the audit, not about a finding.
var AllowAudit = &Analyzer{
	Name: "allowaudit",
	Run:  func(p *Package) []Diagnostic { return nil },
}
