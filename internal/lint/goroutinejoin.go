package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"mood/internal/lint/analysis"
)

// goroutinejoin forbids fire-and-forget goroutines in library code:
// every `go` statement must spawn a body some other code provably
// joins, or shutdown cannot guarantee quiescence (the discipline behind
// Close draining workers, the checkpoint loop, and the retrainer).
//
// Join evidence is keyed by object identity (the *types.Var of a field
// or local), so `defer close(s.ckptDone)` inside checkpointLoop matches
// `<-s.ckptDone` inside Close even though they sit in different
// methods. A goroutine counts as joined when its body (the function
// literal, or the declaration a one-level call-graph lookup resolves a
// `go s.method()` to) either:
//
//   - calls Done on a WaitGroup object that some function in the
//     package Waits on, or
//   - sends on / closes a channel object that some function in the
//     package receives from (<-ch, range ch, or a select case).
//
// Anything else — including a goroutine whose body the analyzer cannot
// resolve — is a diagnostic. main packages (cmd/) are exempt: process
// exit is their join.
type GoroutineJoinConfig struct {
	// ExcludePathPrefixes are package-path prefixes exempt from the
	// rule (binaries own the process lifetime).
	ExcludePathPrefixes []string
}

// DefaultGoroutineJoin exempts the enumerated binaries, whose join is
// process exit. cmd/moodrouter is deliberately in scope: the router is
// a long-running proxy whose serve loop must shut down to quiescence
// like library code, so its goroutines need provable joins.
func DefaultGoroutineJoin() *analysis.Analyzer {
	return GoroutineJoin(GoroutineJoinConfig{
		ExcludePathPrefixes: []string{
			"mood/cmd/datagen",
			"mood/cmd/moodbench",
			"mood/cmd/moodctl",
			"mood/cmd/moodload",
			"mood/cmd/moodserver",
			"mood/cmd/moodvet",
		},
	})
}

// GoroutineJoin builds the analyzer for the given scope.
func GoroutineJoin(cfg GoroutineJoinConfig) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "goroutinejoin",
		Doc: "require every go statement outside cmd/ to have a provable join — a WaitGroup " +
			"the package Waits on, or an owned channel the package receives from — so " +
			"shutdown can always reach quiescence",
	}
	a.Run = func(pass *analysis.Pass) error {
		for _, prefix := range cfg.ExcludePathPrefixes {
			if p := pass.PkgPath(); len(p) >= len(prefix) && p[:len(prefix)] == prefix {
				return nil
			}
		}
		gj := &joinChecker{pass: pass,
			graph:    analysis.BuildCallGraph(pass.Files, pass.TypesInfo),
			waited:   map[types.Object]bool{},
			received: map[types.Object]bool{},
		}
		gj.collectEvidence()
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if pass.InTestFile(g.Pos()) {
					return true
				}
				gj.checkGo(g)
				return true
			})
		}
		return nil
	}
	return a
}

type joinChecker struct {
	pass  *analysis.Pass
	graph *analysis.CallGraph
	// waited holds WaitGroup objects some function calls Wait on;
	// received holds channel objects some function receives from.
	waited   map[types.Object]bool
	received map[types.Object]bool
}

// collectEvidence scans the whole package for the consuming side of a
// join: WaitGroup.Wait calls and channel receives.
func (gj *joinChecker) collectEvidence() {
	for _, f := range gj.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
					if obj := exprObject(gj.pass, sel.X); obj != nil {
						gj.waited[obj] = true
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					if obj := exprObject(gj.pass, ast.Unparen(n.X)); obj != nil {
						gj.received[obj] = true
					}
				}
			case *ast.RangeStmt:
				if isChannel(gj.pass.TypesInfo.TypeOf(n.X)) {
					if obj := exprObject(gj.pass, ast.Unparen(n.X)); obj != nil {
						gj.received[obj] = true
					}
				}
			}
			return true
		})
	}
}

// checkGo verifies one go statement has join evidence.
func (gj *joinChecker) checkGo(g *ast.GoStmt) {
	body := gj.spawnedBody(g.Call)
	if body != nil && gj.bodyJoins(body) {
		return
	}
	gj.pass.Reportf(g.Pos(),
		"goroutine has no provable join: its body neither signals a WaitGroup the package "+
			"Waits on nor closes/sends on a channel the package receives from "+
			"(fire-and-forget goroutines are only allowed in cmd/)")
}

// spawnedBody resolves the body a go statement runs: a function
// literal's own body, or the declaration of a directly-called package
// function/method. nil when the callee is out of reach (function
// values, out-of-package calls).
func (gj *joinChecker) spawnedBody(call *ast.CallExpr) *ast.BlockStmt {
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return fl.Body
	}
	if fn := gj.graph.CalleeOf(gj.pass.TypesInfo, call); fn != nil {
		return fn.Decl.Body
	}
	return nil
}

// bodyJoins reports whether a goroutine body produces join evidence:
// Done on a waited WaitGroup, or a close/send on a received channel.
// Nested function literals inside the body count (a deferred cleanup
// closure is still executed by this goroutine); further go statements
// inside it are checked on their own.
func (gj *joinChecker) bodyJoins(body *ast.BlockStmt) bool {
	joined := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // a nested goroutine's signals are its own
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Done" {
					if obj := exprObject(gj.pass, fun.X); obj != nil && gj.waited[obj] {
						joined = true
					}
				}
			case *ast.Ident:
				if fun.Name == "close" && len(n.Args) == 1 {
					if obj := exprObject(gj.pass, ast.Unparen(n.Args[0])); obj != nil && gj.received[obj] {
						joined = true
					}
				}
			}
		case *ast.SendStmt:
			if obj := exprObject(gj.pass, ast.Unparen(n.Chan)); obj != nil && gj.received[obj] {
				joined = true
			}
		}
		return !joined
	})
	return joined
}

// isChannel reports whether t is a channel type.
func isChannel(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// exprObject resolves an ident or selector to its variable object.
func exprObject(pass *analysis.Pass, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[e.Sel]
	}
	return nil
}
