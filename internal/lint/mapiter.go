package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Mapiter guards the repository's byte-identity claims against Go's
// deliberately randomized map iteration order.
//
// The repo's scientific contract is that every report, checksum and trace
// is byte-identical across runs (and across host parallelism — see the
// serving and conformance differential tests). A `for k := range m` whose
// body feeds an order-sensitive sink silently breaks that: the program
// still works, the output just shuffles between runs. Mapiter flags map
// iterations whose body reaches one of the sinks below, unless the loop is
// the blessed sorted-keys idiom (collect, then sort before the slice
// escapes):
//
//   - emission: fmt.Print*/Fprint* and log.Print* calls, and Write/
//     WriteString/WriteByte/WriteRune calls on a writer that outlives the
//     loop (a builder created fresh each iteration is fine);
//   - accumulation: append to a slice declared outside the loop that
//     escapes the function without being sorted first;
//   - communication: a channel send (the receiver observes arrival order);
//   - folding: non-commutative compound assignments to state that outlives
//     the loop (*=, -=, /=, <<=, >>=, &^=, and += on floats, whose addition
//     is not associative). Commutative integer folds (+=, ^=, |=, &=) are
//     order-insensitive and stay silent.
//
// testing.T/B methods are not sinks: failure messages are diagnostics, not
// simulation output, and at most one Fatal fires per test.
//
// The diagnostic carries a ready-to-paste sorted-keys rewrite, so the fix
// is mechanical:
//
//	keys := make([]K, 0, len(m))
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys) // or sort.Slice for other key types
//	for _, k := range keys { ... }
var Mapiter = &Analyzer{
	Name: "mapiter",
	Run:  runMapiter,
}

func runMapiter(p *Package) []Diagnostic {
	var out []Diagnostic
	forEachFuncBody(p, func(fd *ast.FuncDecl) {
		var flow *FuncFlow // built lazily: most functions range over no maps
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !p.rangesOverMap(rs) {
				return true
			}
			if rs.Key == nil || isBlank(rs.Key) {
				// `for range m` binds nothing: every iteration is
				// indistinguishable, so order cannot leak.
				if rs.Value == nil || isBlank(rs.Value) {
					return true
				}
			}
			if flow == nil {
				flow = NewFuncFlow(p, fd.Body)
			}
			out = append(out, p.mapiterSinks(flow, rs)...)
			return true
		})
	})
	return out
}

// rangesOverMap reports whether the range statement iterates a map.
func (p *Package) rangesOverMap(rs *ast.RangeStmt) bool {
	tv, ok := p.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// mapiterSinks scans one map-range body for order-sensitive sinks.
func (p *Package) mapiterSinks(flow *FuncFlow, rs *ast.RangeStmt) []Diagnostic {
	var out []Diagnostic
	seenLines := map[int]bool{}
	report := func(pos token.Pos, what string) {
		line := p.Position(pos).Line
		if seenLines[line] {
			return
		}
		seenLines[line] = true
		out = append(out, p.Diag("mapiter", pos,
			"map iteration order reaches %s; iterate sorted keys instead: %s",
			what, p.sortedKeysSuggestion(rs)))
	}
	lo, hi := rs.Body.Pos(), rs.Body.End()
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			report(x.Pos(), "a channel send (the receiver observes arrival order)")
		case *ast.CallExpr:
			if what, bad := p.emissionSink(x, lo, hi); bad {
				report(x.Pos(), what)
			}
		case *ast.AssignStmt:
			out = append(out, p.mapiterAssignSinks(flow, rs, x, lo, hi, report)...)
		}
		return true
	})
	return out
}

// mapiterAssignSinks handles accumulation and folding sinks. It returns no
// diagnostics itself (report collects them); the slice return keeps the
// call shape symmetrical with mapiterSinks for appends that need flow
// queries.
func (p *Package) mapiterAssignSinks(flow *FuncFlow, rs *ast.RangeStmt, as *ast.AssignStmt, lo, hi token.Pos, report func(token.Pos, string)) []Diagnostic {
	// s = append(s, ...): accumulation into an outer slice.
	if as.Tok == token.ASSIGN || as.Tok == token.DEFINE {
		if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok && p.isAppendTo(call, as.Lhs[0]) {
				key := ExprKey(as.Lhs[0])
				if declaredWithin(p, as.Lhs[0], lo, hi) {
					return nil // per-iteration accumulator; dies with the iteration
				}
				if flow.SortedAfter(key, rs.End()) {
					return nil // the sorted-keys idiom: order restored before use
				}
				if flow.Escapes(key) {
					report(as.Pos(), fmt.Sprintf("slice %q, which escapes unsorted", key))
				}
			}
		}
		return nil
	}
	// Compound assignments: non-commutative folds over iteration order.
	if len(as.Lhs) != 1 || declaredWithin(p, as.Lhs[0], lo, hi) {
		return nil
	}
	switch as.Tok {
	case token.MUL_ASSIGN, token.SUB_ASSIGN, token.QUO_ASSIGN,
		token.SHL_ASSIGN, token.SHR_ASSIGN, token.AND_NOT_ASSIGN:
		report(as.Pos(), fmt.Sprintf("a non-commutative fold (%s) whose result depends on iteration order", as.Tok))
	case token.ADD_ASSIGN:
		if t := p.Info.Types[as.Lhs[0]].Type; t != nil && isFloatType(t) {
			report(as.Pos(), "a float accumulation (+= is not associative in floating point)")
		}
	}
	return nil
}

// emissionSink classifies calls that emit bytes in iteration order.
func (p *Package) emissionSink(call *ast.CallExpr, lo, hi token.Pos) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	// Package-level emitters: fmt.Print*/Fprint*, log.Print*.
	if x, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := p.Info.Uses[x].(*types.PkgName); ok {
			switch pn.Imported().Path() {
			case "fmt":
				switch sel.Sel.Name {
				case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
					return fmt.Sprintf("output (fmt.%s emits in iteration order)", sel.Sel.Name), true
				}
			case "log":
				switch sel.Sel.Name {
				case "Print", "Printf", "Println":
					return fmt.Sprintf("output (log.%s emits in iteration order)", sel.Sel.Name), true
				}
			}
			return "", false
		}
	}
	// Writer methods on a receiver that outlives the loop: the byte stream
	// records iteration order. Includes hash.Hash.Write — a checksum fed in
	// map order differs between runs.
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
	default:
		return "", false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return "", false
	}
	if declaredWithin(p, sel.X, lo, hi) {
		return "", false // fresh writer per iteration
	}
	return fmt.Sprintf("a writer (%s.%s records iteration order)", ExprKey(sel.X), sel.Sel.Name), true
}

// isAppendTo reports whether call is `append(target, ...)` for the same
// chain as target.
func (p *Package) isAppendTo(call *ast.CallExpr, target ast.Expr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return false
	}
	if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	tk := ExprKey(target)
	return tk != "" && ExprKey(call.Args[0]) == tk
}

// sortedKeysSuggestion renders the mechanical fix for the flagged loop,
// with the key type's natural sort call filled in.
func (p *Package) sortedKeysSuggestion(rs *ast.RangeStmt) string {
	m := ExprKey(rs.X)
	if m == "" {
		m = "m"
	}
	keyType, sortCall := "K", "sort.Slice(keys, ...)"
	if tv, ok := p.Info.Types[rs.X]; ok && tv.Type != nil {
		if mt, ok := tv.Type.Underlying().(*types.Map); ok {
			keyType = types.TypeString(mt.Key(), func(pk *types.Package) string { return pk.Name() })
			if b, ok := mt.Key().Underlying().(*types.Basic); ok {
				switch {
				case b.Info()&types.IsString != 0:
					sortCall = "sort.Strings(keys)"
				case b.Kind() == types.Int:
					sortCall = "sort.Ints(keys)"
				}
			}
		}
	}
	return fmt.Sprintf("keys := make([]%s, 0, len(%s)); for k := range %s { keys = append(keys, k) }; %s; for _, k := range keys { ... }",
		keyType, m, m, sortCall)
}

// isFloatType reports whether t is a floating-point type.
func isFloatType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isBlank reports whether the expression is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
