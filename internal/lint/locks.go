package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Locks enforces the repository's mutex discipline.
//
// The serving layer's correctness arguments (Pool.Close never racing a
// queue send, Registry counters staying consistent under -race) are
// phrased as lock invariants; this analyzer keeps two classic ways of
// breaking them out of the tree (the third, copying a lock, is left to go
// vet's copylocks check, which `make check` and CI run):
//
//   - Lock without a dominating release: a Lock with no matching
//     Unlock/deferred Unlock afterwards, or with a return path between the
//     Lock and any release. Read locks pair with RUnlock, write locks with
//     Unlock. The analysis is per function body, source-ordered — the
//     same shape go vet's lostcancel uses — so conditional early releases
//     (`if done { mu.Unlock(); return }`) are understood.
//   - channel send while a lock is held: a blocking send under a mutex is
//     a deadlock waiting for a consumer that may need the same mutex. The
//     critical section is taken to end at the first matching release in
//     the same statement list (releases inside nested branches are
//     conditional and do not end the straight-line section). Deliberate
//     designs — e.g. serving.Pool.Submit holding the read lock across the
//     queue send to fence Close — carry //lint:allow locks <reason>.
//
// Function literals are analyzed as their own bodies: a closure's critical
// sections are its own, not the enclosing function's.
var Locks = &Analyzer{
	Name: "locks",
	Doc:  "flags Lock without a dominating Unlock/defer, and channel sends while a lock is held",
	Run:  runLocks,
}

func runLocks(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Body != nil {
					out = append(out, p.checkLockBody(x.Body)...)
				}
				return true
			case *ast.FuncLit:
				out = append(out, p.checkLockBody(x.Body)...)
				return true
			}
			return true
		})
	}
	return out
}

// --- Lock/Unlock discipline ------------------------------------------------

// lockEvent is one discipline-relevant event inside a function body, in
// source order.
type lockEvent struct {
	kind lockEventKind
	key  string // canonical receiver chain, e.g. "p.mu"
	read bool   // RLock/RUnlock vs Lock/Unlock
	pos  token.Pos
}

type lockEventKind int

const (
	evAcquire lockEventKind = iota
	evRelease
	evDeferRelease
	evReturn
)

// lockMethod classifies a call as a lock acquire/release and returns the
// receiver chain.
func (p *Package) lockMethod(call *ast.CallExpr) (key string, acquire, read, ok bool) {
	sel, selOk := call.Fun.(*ast.SelectorExpr)
	if !selOk || len(call.Args) != 0 {
		return "", false, false, false
	}
	switch sel.Sel.Name {
	case "Lock":
		acquire, read = true, false
	case "RLock":
		acquire, read = true, true
	case "Unlock":
		acquire, read = false, false
	case "RUnlock":
		acquire, read = false, true
	default:
		return "", false, false, false
	}
	// Only sync mutexes (and embedders exposing their methods) count; a
	// domain type that happens to have a Lock method is not a mutex.
	fn, fnOk := p.Info.Uses[sel.Sel].(*types.Func)
	if !fnOk || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false, false
	}
	key = ExprKey(sel.X)
	if key == "" {
		return "", false, false, false
	}
	return key, acquire, read, true
}

// checkLockBody runs the discipline and send-under-lock checks over one
// function-like body. Nested function literals and go statements are
// skipped — they are separate execution contexts, analyzed on their own.
func (p *Package) checkLockBody(body *ast.BlockStmt) []Diagnostic {
	var events []lockEvent
	var collect func(n ast.Node) bool
	collect = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.ReturnStmt:
			events = append(events, lockEvent{kind: evReturn, pos: x.Pos()})
		case *ast.DeferStmt:
			if key, acquire, read, ok := p.lockMethod(x.Call); ok && !acquire {
				events = append(events, lockEvent{kind: evDeferRelease, key: key, read: read, pos: x.Pos()})
			}
			// defer func(){ ... mu.Unlock() ... }(): the closure runs at
			// return time in this goroutine — count its releases as
			// deferred releases.
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						if key, acquire, read, ok := p.lockMethod(call); ok && !acquire {
							events = append(events, lockEvent{kind: evDeferRelease, key: key, read: read, pos: x.Pos()})
						}
					}
					return true
				})
			}
			return false
		case *ast.CallExpr:
			if key, acquire, read, ok := p.lockMethod(x); ok {
				kind := evRelease
				if acquire {
					kind = evAcquire
				}
				events = append(events, lockEvent{kind: kind, key: key, read: read, pos: x.Pos()})
			}
		}
		return true
	}
	ast.Inspect(body, collect)

	var out []Diagnostic
	for i, ev := range events {
		if ev.kind != evAcquire {
			continue
		}
		if d, bad := p.checkAcquire(events, i); bad {
			out = append(out, d)
		}
	}
	out = append(out, p.checkSendsUnderLock(body)...)
	return out
}

// checkAcquire validates one Lock against the events after it.
func (p *Package) checkAcquire(events []lockEvent, i int) (Diagnostic, bool) {
	acq := events[i]
	matches := func(ev lockEvent) bool { return ev.key == acq.key && ev.read == acq.read }
	releases := 0
	for _, ev := range events[i+1:] {
		if ev.kind == evDeferRelease && matches(ev) {
			return Diagnostic{}, false // defer covers every path from here
		}
		if ev.kind == evRelease && matches(ev) {
			releases++
		}
	}
	if releases == 0 {
		return p.Diag("locks", acq.pos,
			"%s is locked but never released in this function; add a deferred unlock or release on every path", acq.key), true
	}
	// Every return after the acquire must see a release first.
	seenRelease := false
	for _, ev := range events[i+1:] {
		switch {
		case ev.kind == evRelease && matches(ev):
			seenRelease = true
		case ev.kind == evAcquire && matches(ev):
			seenRelease = false // re-acquired: the next return needs its own release
		case ev.kind == evReturn && !seenRelease:
			return p.Diag("locks", acq.pos,
				"%s is locked but a return at line %d is reachable before any release; unlock on that path or defer", acq.key, p.Position(ev.pos).Line), true
		}
	}
	return Diagnostic{}, false
}

// checkSendsUnderLock flags channel sends inside straight-line critical
// sections: from an acquire statement to the first matching release in the
// same statement list (or the list's end when released conditionally or
// via defer).
func (p *Package) checkSendsUnderLock(body *ast.BlockStmt) []Diagnostic {
	var out []Diagnostic
	var walkList func(list []ast.Stmt)
	walkList = func(list []ast.Stmt) {
		for i, st := range list {
			// Recurse into nested statement lists first.
			for _, nested := range nestedStmtLists(st) {
				walkList(nested)
			}
			expr, ok := st.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := expr.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			key, acquire, read, ok := p.lockMethod(call)
			if !ok || !acquire {
				continue
			}
			// Scan the straight-line remainder of this list for sends.
			for _, rest := range list[i+1:] {
				if rexpr, ok := rest.(*ast.ExprStmt); ok {
					if rcall, ok := rexpr.X.(*ast.CallExpr); ok {
						if rkey, racq, rread, rok := p.lockMethod(rcall); rok && !racq && rkey == key && rread == read {
							break // released on the straight-line path
						}
					}
				}
				if _, isReturn := rest.(*ast.ReturnStmt); isReturn {
					break
				}
				for _, send := range sendsWithin(rest) {
					out = append(out, p.Diag("locks", send.Pos(),
						"channel send while %s is held; a blocked receiver deadlocks the lock — release first or justify with //lint:allow locks <reason>", key))
				}
			}
		}
	}
	walkList(body.List)
	return out
}

// nestedStmtLists returns the statement lists nested directly inside one
// statement (if/for/switch/select bodies), so every list is scanned once.
func nestedStmtLists(st ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch x := st.(type) {
	case *ast.BlockStmt:
		out = append(out, x.List)
	case *ast.IfStmt:
		out = append(out, x.Body.List)
		if x.Else != nil {
			out = append(out, nestedStmtLists(x.Else)...)
		}
	case *ast.ForStmt:
		out = append(out, x.Body.List)
	case *ast.RangeStmt:
		out = append(out, x.Body.List)
	case *ast.SwitchStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.LabeledStmt:
		out = append(out, nestedStmtLists(x.Stmt)...)
	}
	return out
}

// sendsWithin collects the channel sends syntactically inside one
// statement, excluding other execution contexts (function literals, go
// statements) — those run on their own goroutine or at another time.
func sendsWithin(st ast.Stmt) []*ast.SendStmt {
	var out []*ast.SendStmt
	ast.Inspect(st, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			out = append(out, x)
		}
		return true
	})
	return out
}
