package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// Panicmsg enforces the repository's panic-message convention.
//
// Library panics signal address-math or shape bugs in a simulator where
// failing loudly beats computing a wrong figure. A bare panic("index out
// of range") observed three layers up in an experiment harness is nearly
// untraceable; prefixing every message with the originating package
// ("flash: ", "engine: ", ...) makes the failing layer legible from the
// message alone. Command (main) packages are exempt — they terminate via
// log.Fatal and friends.
var Panicmsg = &Analyzer{
	Name: "panicmsg",
	Run:  runPanicmsg,
}

func runPanicmsg(p *Package) []Diagnostic {
	if p.IsCommand() {
		return nil
	}
	prefix := p.Types.Name() + ": "
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true // shadowed panic
			}
			arg := call.Args[0]
			if msg, ok := p.constantString(arg); ok {
				if !strings.HasPrefix(msg, prefix) {
					out = append(out, p.Diag("panicmsg", arg.Pos(),
						"panic message %q must carry the %q package prefix", truncate(msg), prefix))
				}
				return true
			}
			if format, ok := p.formatCallString(arg); ok {
				if !strings.HasPrefix(format, prefix) {
					out = append(out, p.Diag("panicmsg", arg.Pos(),
						"panic format %q must carry the %q package prefix", truncate(format), prefix))
				}
				return true
			}
			out = append(out, p.Diag("panicmsg", arg.Pos(),
				`panic value is not a %q-prefixed message; wrap it, e.g. panic(fmt.Sprintf("%s%%v", err))`, prefix, prefix))
			return true
		})
	}
	return out
}

// constantString returns the value of a compile-time string expression.
func (p *Package) constantString(e ast.Expr) (string, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// formatCallString returns the constant format string of a
// fmt.Sprintf/fmt.Errorf call.
func (p *Package) formatCallString(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return "", false
	}
	switch fn.Name() {
	case "Sprintf", "Errorf", "Sprint", "Sprintln":
	default:
		return "", false
	}
	return p.constantString(call.Args[0])
}

// truncate keeps diagnostics one line long.
func truncate(s string) string {
	if len(s) > 40 {
		return s[:37] + "..."
	}
	return s
}
