package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Goroutine enforces spawn discipline in every library package.
//
// The host-parallel paths (internal/serving pools and routers, the
// internal/bench cell sweep, model.BuildResident's row-split weight fill)
// are proven byte-identical to their sequential counterparts — but only
// because every goroutine is joined before its results are observed. An
// unjoined goroutine is how that proof rots: work completes "usually
// before" the read instead of "always before", and the differential tests
// go flaky instead of failing. The device path (sim, engine, flash,
// evcache, core) spawns no goroutine at all, so one added there must be
// joined too. The analyzer covers every package, tests included, outside
// cmd/, examples/ and benchmark/: command-line harnesses and examples
// measure wall-clock reality and are out of scope.
//
// For each `go` statement the analyzer resolves the spawned function —
// literals directly, local closures through the dataflow engine
// (`work := func(){...}; go work()`) — and requires one visible join or
// cancellation path:
//
//   - WaitGroup pairing: the body calls Done (usually deferred) AND an
//     Add call on a WaitGroup precedes the spawn in the spawning function;
//     Done without a visible Add is flagged (Add-after-spawn races Wait);
//   - channel discipline: the body sends on, or closes, a channel — the
//     spawner (or its consumer) can block on the receive;
//   - cancellation: the body waits on a context's Done channel.
//
// A spawned function the analyzer cannot see into (method value, package
// function, parameter) is accepted only when a WaitGroup Add precedes the
// spawn; otherwise it is flagged — one-sided, by design.
//
// Separately, a body that references an enclosing loop variable without
// receiving it as an argument is flagged: since Go 1.22 the capture is
// per-iteration and memory-safe, but the dependence is invisible at the
// spawn site, and the pre-1.22 reading of the same code was a data race.
// Passing the variable explicitly keeps the data flow auditable.
var Goroutine = &Analyzer{
	Name: "goroutine",
	Doc:  "flags go statements outside cmd/, examples/ and benchmark/ without a visible join/cancellation path, and loop-variable captures",
	Run:  runGoroutine,
}

// goroutineScoped reports whether the package lies outside the harness
// trees: the top directory under the module ("rmssd/cmd/rmserve" ->
// "cmd") is not cmd, examples or benchmark. Scoping by import path leaves
// no package list to go stale; fixtures, loaded under one-element pseudo
// paths, are in scope.
func goroutineScoped(p *Package) bool {
	_, rest, ok := strings.Cut(p.Path, "/")
	if !ok {
		return true
	}
	top, _, _ := strings.Cut(rest, "/")
	switch strings.TrimSuffix(top, "_test") {
	case "cmd", "examples", "benchmark":
		return false
	}
	return true
}

func runGoroutine(p *Package) []Diagnostic {
	if !goroutineScoped(p) {
		return nil
	}
	var out []Diagnostic
	forEachFuncBody(p, func(fd *ast.FuncDecl) {
		var flow *FuncFlow
		// Walk with an explicit loop-variable scope stack so a go statement
		// knows which range/for variables enclose it.
		var loopVars []map[types.Object]bool
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.RangeStmt:
				vars := map[types.Object]bool{}
				for _, e := range []ast.Expr{x.Key, x.Value} {
					if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
						if obj := p.Info.Defs[id]; obj != nil {
							vars[obj] = true
						}
					}
				}
				loopVars = append(loopVars, vars)
				ast.Inspect(x.Body, walk)
				loopVars = loopVars[:len(loopVars)-1]
				return false
			case *ast.ForStmt:
				vars := map[types.Object]bool{}
				if init, ok := x.Init.(*ast.AssignStmt); ok && init.Tok.String() == ":=" {
					for _, lhs := range init.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
							if obj := p.Info.Defs[id]; obj != nil {
								vars[obj] = true
							}
						}
					}
				}
				loopVars = append(loopVars, vars)
				ast.Inspect(x.Body, walk)
				loopVars = loopVars[:len(loopVars)-1]
				return false
			case *ast.GoStmt:
				if flow == nil {
					flow = NewFuncFlow(p, fd.Body)
				}
				out = append(out, p.checkGoStmt(flow, fd, x, loopVars)...)
			}
			return true
		}
		ast.Inspect(fd.Body, walk)
	})
	return out
}

// checkGoStmt applies the capture and join checks to one go statement.
func (p *Package) checkGoStmt(flow *FuncFlow, fd *ast.FuncDecl, g *ast.GoStmt, loopVars []map[types.Object]bool) []Diagnostic {
	var out []Diagnostic
	lit := flow.ResolveFuncLit(g.Call.Fun)

	if lit == nil {
		// Opaque spawn target: accept only with a WaitGroup Add visibly
		// preceding the spawn.
		if !p.wgAddBefore(fd, g) {
			out = append(out, p.Diag("goroutine", g.Pos(),
				"go statement spawns a function the analyzer cannot see into, with no WaitGroup.Add before the spawn; add a visible join (WaitGroup, channel) or //lint:allow goroutine <reason>"))
		}
		return out
	}

	// Loop-variable capture by reference.
	if len(loopVars) > 0 {
		all := map[types.Object]bool{}
		for _, scope := range loopVars {
			for obj := range scope {
				all[obj] = true
			}
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := p.Info.Uses[id]; obj != nil && all[obj] {
				out = append(out, p.Diag("goroutine", g.Pos(),
					"goroutine body captures loop variable %q by reference; pass it as an argument (go func(%s ...) {...}(%s)) to keep the dependence visible",
					id.Name, id.Name, id.Name))
				delete(all, obj) // one diagnostic per variable
			}
			return true
		})
	}

	// Join / cancellation evidence inside the body.
	hasDone, hasSend, hasClose, hasCtx := p.joinEvidence(lit)
	switch {
	case hasDone:
		if !p.wgAddBefore(fd, g) {
			out = append(out, p.Diag("goroutine", g.Pos(),
				"goroutine calls WaitGroup.Done but no Add precedes the spawn in this function; Add after spawn races Wait"))
		}
	case hasSend, hasClose, hasCtx:
		// Joined through a channel or cancellable through a context.
	default:
		out = append(out, p.Diag("goroutine", g.Pos(),
			"goroutine has no visible join or cancellation path (WaitGroup Add/Done, channel send/close, or ctx.Done); an unjoined goroutine makes completion ordering a race"))
	}
	return out
}

// joinEvidence scans a spawned body for the join/cancellation signals.
func (p *Package) joinEvidence(lit *ast.FuncLit) (hasDone, hasSend, hasClose, hasCtx bool) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			hasSend = true
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
					hasClose = true
				}
				return true
			}
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Done":
				if p.receiverIs(sel, "sync", "WaitGroup") {
					hasDone = true
				}
				if p.receiverIs(sel, "context", "Context") {
					hasCtx = true
				}
			case "Wait":
				// A body that waits on another group is not thereby joined
				// itself; ignore.
			}
		}
		return true
	})
	return
}

// wgAddBefore reports whether a WaitGroup Add call precedes pos within the
// function (the Add half of the Add-before-spawn discipline).
func (p *Package) wgAddBefore(fd *ast.FuncDecl, g *ast.GoStmt) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= g.Pos() {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" && p.receiverIs(sel, "sync", "WaitGroup") {
			found = true
		}
		return !found
	})
	return found
}

// receiverIs reports whether the selector's receiver has the named type
// (seeing through pointers), e.g. ("sync", "WaitGroup").
func (p *Package) receiverIs(sel *ast.SelectorExpr, pkgPath, name string) bool {
	tv, ok := p.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}
