package lint

import (
	"go/ast"
	"go/types"
)

// Units guards the boundary between the repository's two unit systems.
//
// The paper's Table II timing model mixes FPGA cycle counts (sim.Cycles,
// 5 ns each at 200 MHz) with simulated durations (time.Duration). Both are
// 64-bit integers underneath, so a raw conversion compiles and silently
// reinterprets 4000 cycles as 4 µs instead of 20 µs — corrupting every
// figure downstream. The Go type system already rejects Cycles+Duration
// arithmetic; this analyzer closes the remaining hole by rejecting raw
// conversions between the two. The blessed bridges are:
//
//	c.Duration(cycleTime)                  // Cycles -> Duration
//	params.Duration(c)                     // Cycles -> Duration at the FPGA clock
//	sim.DurationToCycles(d, cycleTime)     // Duration -> Cycles
//
// The same reasoning protects bandwidth figures: sim.ByteRate (bytes per
// simulated second) is a float64 underneath, so a raw conversion quietly
// turns vectors/second into bytes/second or back. Raw sim.ByteRate(x) and
// float64(rate) conversions of non-constant values are rejected; the
// blessed bridges are:
//
//	sim.RateOver(n, d)                     // measurement -> ByteRate
//	r.BytesPerSecond(), r.UnitsPerSecond(…)  // ByteRate -> scalar, unit named
//
// The converters themselves live in package sim, which is exempt.
var Units = &Analyzer{
	Name: "units",
	Run:  runUnits,
}

// isCyclesType reports whether t is the sim.Cycles named type (matched by
// name and package name so fixture stand-ins are recognized too).
func isCyclesType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Cycles" && obj.Pkg() != nil && obj.Pkg().Name() == "sim"
}

// isDurationType reports whether t is time.Duration (or an alias of it,
// such as sim.Time).
func isDurationType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Duration" && obj.Pkg() != nil && obj.Pkg().Path() == "time"
}

// isByteRateType reports whether t is the sim.ByteRate named type (matched
// like isCyclesType so fixture stand-ins are recognized too).
func isByteRateType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "ByteRate" && obj.Pkg() != nil && obj.Pkg().Name() == "sim"
}

// isFloat64Type reports whether t is the predeclared float64.
func isFloat64Type(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.Float64
}

func runUnits(p *Package) []Diagnostic {
	if p.Types.Name() == "sim" {
		return nil // the converter implementations live here
	}
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			tv, ok := p.Info.Types[call.Fun]
			if !ok || !tv.IsType() {
				return true // a real call, not a conversion
			}
			target := tv.Type
			argT := p.Info.Types[call.Args[0]].Type
			if argT == nil {
				return true
			}
			argConst := p.Info.Types[call.Args[0]].Value != nil
			switch {
			case isDurationType(target) && isCyclesType(argT):
				out = append(out, p.Diag("units", call.Pos(),
					"raw time.Duration(...) conversion from sim.Cycles loses the clock; use Cycles.Duration(cycleTime) or params.Duration"))
			case isCyclesType(target) && isDurationType(argT):
				out = append(out, p.Diag("units", call.Pos(),
					"raw sim.Cycles(...) conversion from time.Duration loses the clock; use sim.DurationToCycles(d, cycleTime)"))
			case isByteRateType(target) && isFloat64Type(argT) && !argConst:
				out = append(out, p.Diag("units", call.Pos(),
					"raw sim.ByteRate(...) conversion from float64 loses the unit; use sim.RateOver(bytes, duration)"))
			case isFloat64Type(target) && isByteRateType(argT):
				out = append(out, p.Diag("units", call.Pos(),
					"raw float64(...) conversion from sim.ByteRate loses the unit; use BytesPerSecond/MBPerSecond/UnitsPerSecond"))
			}
			return true
		})
	}
	return out
}
