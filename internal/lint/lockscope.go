package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mood/internal/lint/analysis"
)

// LockScopeConfig scopes the lockscope analyzer.
type LockScopeConfig struct {
	// Package owns the shard type.
	Package string
	// ShardType is the struct whose mutex field guards a state shard.
	ShardType string
	// MutexField is the sync.Mutex field name on ShardType.
	MutexField string
	// ServerType is the aggregate whose Snapshot-style methods walk
	// every shard (re-acquiring shard locks).
	ServerType string
	// WalkMethods are ServerType methods that acquire shard locks
	// themselves; calling one while a shard lock is held is a lock-order
	// hazard. Any ServerType method whose name ends in "Snapshot" is
	// treated as a walk method regardless of this set.
	WalkMethods map[string]bool
}

// DefaultLockScope is the repo rule from PR 1's sharding: a stateShard
// mutex is a short, CPU-only critical section. Blocking under it —
// channel operations, response writes, outbound HTTP, clock waits, or
// re-entering the shard locks via a full-state walk — stalls every
// user hashing to the shard (and, for walks, risks deadlock).
func DefaultLockScope() *analysis.Analyzer {
	return LockScope(LockScopeConfig{
		Package:    "mood/internal/service",
		ShardType:  "stateShard",
		MutexField: "mu",
		ServerType: "Server",
		WalkMethods: map[string]bool{
			"Stats": true, "Users": true,
		},
	})
}

// LockScope builds the analyzer for the given scope. It tracks, per
// function and in statement order, whether a ShardType.MutexField lock
// is held, and flags while locked:
//
//   - channel sends, receives, selects and channel-range loops;
//   - clock waits (time.Sleep/After/Tick and clock.Clock's
//     Sleep/After/NewTicker) and sync.WaitGroup.Wait;
//   - HTTP response writes (ResponseWriter.Write/WriteHeader,
//     Flusher.Flush) and outbound HTTP (http.Client methods, package
//     Get/Post/Head/PostForm);
//   - acquiring another shard lock (loop bodies that lock are scanned
//     twice, so multi-shard acquisition loops are seen) or calling a
//     ServerType full-state walk method.
//
// The analysis is per-function and syntactic about control flow:
// branch bodies are scanned with a copy of the lock state, function
// literals are scanned as independent functions (a closure's blocking
// is attributed to where it runs, which a per-function analysis cannot
// know). Helpers documented as "callers hold sh.mu" are therefore not
// checked at their call sites — the discipline for those stays in
// review, and the waiver comment records the sanctioned exceptions.
func LockScope(cfg LockScopeConfig) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "lockscope",
		Doc: "flag blocking operations (channel ops, response writes, outbound HTTP, full-state " +
			"walks) while a shard mutex is held (shard-lock hygiene, PR 1)",
	}
	a.Run = func(pass *analysis.Pass) error {
		if pass.PkgPath() != cfg.Package {
			return nil
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				scanLockedFunc(pass, cfg, fd.Body)
				// Function literals are separate scopes: scan each with a
				// fresh (unlocked) state.
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if fl, ok := n.(*ast.FuncLit); ok {
						scanLockedFunc(pass, cfg, fl.Body)
					}
					return true
				})
			}
		}
		return nil
	}
	return a
}

func scanLockedFunc(pass *analysis.Pass, cfg LockScopeConfig, body *ast.BlockStmt) {
	s := &lockScanner{pass: pass, cfg: cfg}
	s.stmts(body.List)
}

type lockScanner struct {
	pass   *analysis.Pass
	cfg    LockScopeConfig
	locked bool
}

func (s *lockScanner) stmts(list []ast.Stmt) {
	for _, st := range list {
		s.stmt(st)
	}
}

func (s *lockScanner) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			switch s.mutexOp(call) {
			case "Lock":
				if s.locked {
					s.pass.Reportf(st.Pos(),
						"acquiring a shard lock while another shard lock is held: lock-order hazard (lockscope, PR 1)")
				}
				s.locked = true
				return
			case "Unlock":
				s.locked = false
				return
			}
		}
		s.check(st.X)
	case *ast.DeferStmt:
		// A deferred Unlock releases at return; the section stays locked
		// for the rest of the scan, which is what we want. The deferred
		// call itself runs after the handler body — not scanned here
		// (its FuncLit body, if any, is scanned as a separate scope).
	case *ast.SendStmt:
		if s.locked {
			s.pass.Reportf(st.Pos(), "channel send while a shard lock is held (lockscope, PR 1)")
			return
		}
	case *ast.SelectStmt:
		if s.locked {
			s.pass.Reportf(st.Pos(), "select (channel wait) while a shard lock is held (lockscope, PR 1)")
			return
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				sub := *s
				sub.stmts(cc.Body)
			}
		}
	case *ast.BlockStmt:
		s.stmts(st.List)
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		s.check(st.Cond)
		then := *s
		then.stmts(st.Body.List)
		if st.Else != nil {
			alt := *s
			alt.stmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Cond != nil {
			s.check(st.Cond)
		}
		s.loopBody(st.Body)
	case *ast.RangeStmt:
		if tv, ok := s.pass.TypesInfo.Types[st.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && s.locked {
				s.pass.Reportf(st.Pos(), "ranging over a channel while a shard lock is held (lockscope, PR 1)")
				return
			}
		}
		s.check(st.X)
		s.loopBody(st.Body)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Tag != nil {
			s.check(st.Tag)
		}
		s.caseBodies(st.Body)
	case *ast.TypeSwitchStmt:
		s.caseBodies(st.Body)
	case *ast.LabeledStmt:
		s.stmt(st.Stmt)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.check(e)
		}
		for _, e := range st.Lhs {
			s.check(e)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.check(e)
		}
	case *ast.DeclStmt:
		if s.locked {
			ast.Inspect(st, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok {
					s.check(e)
					return false
				}
				return true
			})
		}
	case *ast.GoStmt:
		// The goroutine runs concurrently; its body does not hold this
		// lock (scanned separately as a FuncLit scope when literal).
	case *ast.IncDecStmt:
		s.check(st.X)
	}
}

// loopBody scans a loop body; bodies that acquire the shard lock are
// scanned twice so a second iteration's Lock is seen with the first
// iteration's state (the multi-shard acquisition pattern).
func (s *lockScanner) loopBody(body *ast.BlockStmt) {
	locksInside := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && s.mutexOp(call) == "Lock" {
			locksInside = true
		}
		return true
	})
	s.stmts(body.List)
	if locksInside {
		s.stmts(body.List)
	}
}

func (s *lockScanner) caseBodies(body *ast.BlockStmt) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			sub := *s
			sub.stmts(cc.Body)
		}
	}
}

// check inspects an expression for blocking operations while locked.
// Function literals are skipped: they execute elsewhere.
func (s *lockScanner) check(expr ast.Expr) {
	if !s.locked || expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				s.pass.Reportf(n.Pos(), "channel receive while a shard lock is held (lockscope, PR 1)")
			}
		case *ast.CallExpr:
			if desc := s.blockingCall(n); desc != "" {
				s.pass.Reportf(n.Pos(), "%s while a shard lock is held (lockscope, PR 1)", desc)
			}
		}
		return true
	})
}

// mutexOp reports whether the call is Lock/Unlock on the configured
// shard mutex field, returning the method name ("" otherwise).
func (s *lockScanner) mutexOp(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "Unlock") {
		return ""
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok || field.Sel.Name != s.cfg.MutexField {
		return ""
	}
	tv, ok := s.pass.TypesInfo.Types[field.X]
	if !ok {
		return ""
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != s.cfg.ShardType {
		return ""
	}
	return sel.Sel.Name
}

// blockingCall classifies a call as blocking, returning a description
// ("" when not blocking).
func (s *lockScanner) blockingCall(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := s.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	name := fn.Name()
	pkg := fn.Pkg().Path()
	recv := fn.Signature().Recv()
	if recv == nil {
		switch {
		case pkg == "time" && (name == "Sleep" || name == "After" || name == "Tick"):
			return "time." + name + " (clock wait)"
		case pkg == "net/http" && (name == "Get" || name == "Post" || name == "Head" || name == "PostForm"):
			return "outbound HTTP (http." + name + ")"
		}
		return ""
	}
	rt := recvTypeName(recv)
	switch {
	case pkg == "mood/internal/clock" && (name == "Sleep" || name == "After" || name == "NewTicker"):
		return "clock." + name + " (clock wait)"
	case pkg == "sync" && rt == "WaitGroup" && name == "Wait":
		return "sync.WaitGroup.Wait"
	case pkg == "net/http" && rt == "Client":
		return "outbound HTTP (http.Client." + name + ")"
	case pkg == "net/http" && rt == "ResponseWriter" && (name == "Write" || name == "WriteHeader"):
		return "HTTP response write (" + name + ")"
	case pkg == "net/http" && rt == "Flusher" && name == "Flush":
		return "HTTP response flush"
	case s.isWalkMethod(fn):
		return "full-state walk (" + name + " re-enters the shard locks)"
	}
	return ""
}

// isWalkMethod reports whether fn is a ServerType method that walks
// every shard.
func (s *lockScanner) isWalkMethod(fn *types.Func) bool {
	recv := fn.Signature().Recv()
	if recv == nil || recvTypeName(recv) != s.cfg.ServerType {
		return false
	}
	if fn.Pkg() == nil || analysis.BasePkgPath(fn.Pkg().Path()) != s.cfg.Package {
		return false
	}
	return s.cfg.WalkMethods[fn.Name()] || strings.HasSuffix(fn.Name(), "Snapshot")
}
