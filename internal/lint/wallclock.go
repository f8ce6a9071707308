package lint

import (
	"go/ast"
	"go/types"
)

// Wallclock forbids wall-clock reads and unseeded randomness.
//
// DESIGN.md promises that every experiment is exactly reproducible: all
// latencies are virtual-time arithmetic (internal/sim) and every random
// source is explicitly seeded. A single time.Now or global-rand call breaks
// that contract invisibly — results still look plausible, they just stop
// being the paper's. Host-side measurement code (cmd/rmbench's wall-time
// progress report) annotates intent with //lint:allow wallclock <reason>.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Run:  runWallclock,
}

// bannedTimeFuncs are the package-level time functions that observe or
// depend on the wall clock.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRandFuncs are the math/rand constructors that produce explicitly
// seeded sources; everything else at package level draws from the global,
// nondeterministically seeded source.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 seeded constructors.
	"NewPCG": true, "NewChaCha8": true,
}

func runWallclock(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.Info.Uses[x].(*types.PkgName)
			if !ok {
				return true
			}
			switch pn.Imported().Path() {
			case "time":
				if bannedTimeFuncs[sel.Sel.Name] {
					out = append(out, p.Diag("wallclock", sel.Pos(),
						"time.%s reads the wall clock; simulated latencies must use sim virtual time (//lint:allow wallclock <reason> for host-side measurement)",
						sel.Sel.Name))
				}
			case "math/rand", "math/rand/v2":
				obj := p.Info.Uses[sel.Sel]
				if _, isFunc := obj.(*types.Func); !isFunc {
					return true // types (rand.Rand), not calls
				}
				if allowedRandFuncs[sel.Sel.Name] {
					return true
				}
				out = append(out, p.Diag("wallclock", sel.Pos(),
					"rand.%s uses the global, nondeterministically seeded source; construct rand.New(rand.NewSource(seed)) instead",
					sel.Sel.Name))
			}
			return true
		})
	}
	return out
}
