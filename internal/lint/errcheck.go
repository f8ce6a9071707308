package lint

import (
	"go/ast"
	"go/types"
)

// Errcheck flags discarded error returns.
//
// In a simulator, a swallowed error does not crash anything — it quietly
// yields a wrong layout, a missed page or an empty table, and the
// experiment still "works". Two discard shapes are reported:
//
//	f()         // expression statement dropping an error result
//	v, _ := f() // error assigned to the blank identifier
//
// Deferred calls (`defer f.Close()`) are exempt: cleanup-path errors on
// read-only resources are conventionally discarded. Best-effort console
// output is exempt too: fmt.Print* and fmt.Fprint* to os.Stdout/os.Stderr,
// plus writes to strings.Builder and bytes.Buffer, which are documented
// never to fail.
var Errcheck = &Analyzer{
	Name: "errcheck",
	Run:  runErrcheck,
}

func runErrcheck(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.DeferStmt:
				return false // conventional cleanup discard
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					if d, bad := p.checkDiscardedCall(call); bad {
						out = append(out, d)
					}
				}
			case *ast.GoStmt:
				if d, bad := p.checkDiscardedCall(st.Call); bad {
					out = append(out, d)
				}
			case *ast.AssignStmt:
				out = append(out, p.checkBlankErrors(st)...)
			}
			return true
		})
	}
	return out
}

// checkDiscardedCall reports a diagnostic if the statement-level call
// returns an error that the caller cannot have observed.
func (p *Package) checkDiscardedCall(call *ast.CallExpr) (Diagnostic, bool) {
	tv, ok := p.Info.Types[call]
	if !ok || tv.Type == nil {
		return Diagnostic{}, false
	}
	if !resultsContainError(tv.Type) {
		return Diagnostic{}, false
	}
	if p.isBestEffortWrite(call) {
		return Diagnostic{}, false
	}
	return p.Diag("errcheck", call.Pos(),
		"result of %s contains an error that is discarded; handle it or assign it explicitly", calleeName(p, call)), true
}

// checkBlankErrors flags error values assigned to the blank identifier.
func (p *Package) checkBlankErrors(st *ast.AssignStmt) []Diagnostic {
	var out []Diagnostic
	flag := func(pos ast.Node, t types.Type, what string) {
		if t != nil && isErrorType(t) {
			out = append(out, p.Diag("errcheck", pos.Pos(),
				"error from %s discarded with the blank identifier; handle it or annotate //lint:allow errcheck <reason>", what))
		}
	}
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		// v, _ := f(): look the tuple's element types up by position.
		call, ok := st.Rhs[0].(*ast.CallExpr)
		if !ok {
			return nil
		}
		tuple, ok := p.Info.Types[call].Type.(*types.Tuple)
		if !ok {
			return nil
		}
		for i, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" && i < tuple.Len() {
				flag(lhs, tuple.At(i).Type(), calleeName(p, call))
			}
		}
		return out
	}
	for i, lhs := range st.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" && i < len(st.Rhs) {
			flag(lhs, p.Info.Types[st.Rhs[i]].Type, "expression")
		}
	}
	return out
}

// resultsContainError reports whether a call result type includes an error.
func resultsContainError(t types.Type) bool {
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

// isErrorType reports whether t is the error interface.
func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj() == types.Universe.Lookup("error")
}

// calleeName renders the called function for diagnostics.
func calleeName(p *Package, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}

// isBestEffortWrite reports whether the call is an exempt best-effort
// output: fmt.Print*, fmt.Fprint* to stderr/stdout or an in-memory buffer,
// or a direct method on strings.Builder/bytes.Buffer.
func (p *Package) isBestEffortWrite(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj := p.Info.Uses[fun.Sel]
		fn, ok := obj.(*types.Func)
		if !ok {
			return false
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			switch fn.Name() {
			case "Print", "Printf", "Println":
				return true
			case "Fprint", "Fprintf", "Fprintln":
				return len(call.Args) > 0 && p.isBestEffortWriter(call.Args[0])
			}
			return false
		}
		// Methods on never-failing in-memory writers.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return isInMemoryBuffer(sig.Recv().Type())
		}
	}
	return false
}

// isBestEffortWriter reports whether the expression is os.Stdout/os.Stderr
// or an in-memory buffer.
func (p *Package) isBestEffortWriter(e ast.Expr) bool {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if x, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := p.Info.Uses[x].(*types.PkgName); ok && pn.Imported().Path() == "os" {
				return sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr"
			}
		}
	}
	if t := p.Info.Types[e].Type; t != nil {
		return isInMemoryBuffer(t)
	}
	return false
}

// isInMemoryBuffer matches strings.Builder and bytes.Buffer (and pointers
// to them), whose Write methods are documented never to return an error.
func isInMemoryBuffer(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	switch n.Obj().Pkg().Path() + "." + n.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}
