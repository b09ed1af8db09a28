package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"

	"mood/internal/lint/analysis"
)

// The shard shape: a struct holding a mutex and the state it guards,
// both reached only through the doors (isDoor) declared in shard.go.
const shardType, stateType, doorsFile = "stateShard", "shardState", "shard.go"

// LockScopeConfig names the package that declares the shard shape.
type LockScopeConfig struct{ Package string }

// DefaultLockScope keeps the service's shard maps behind their mutexes
// and its critical sections short and CPU-only: blocking there stalls
// every user of the shard, and taking a shard lock again risks deadlock.
func DefaultLockScope() *analysis.Analyzer {
	return LockScope(LockScopeConfig{Package: "mood/internal/service"})
}

// LockScope builds the analyzer. A type carries the lock: the doors,
// locked (one shard) and lockAll (every shard, in index order), hand the
// state to a function as a *shardState while the mutex is held. In the
// package's non-test files the analyzer checks that
//
//   - a shard field, its mutex or its state, is selected only by the
//     doors in shard.go;
//   - no shardState value appears but a literal: a copy would share
//     the shard's maps past the lock;
//   - every other *shardState expression is an identifier naming a
//     parameter or receiver of its innermost function: no variable,
//     field, result or captured literal keeps the state past the lock;
//   - a locked body (a function with a *shardState parameter or receiver,
//     and what it nests but a go statement) does not block: no channel
//     operation, clock wait, WaitGroup.Wait, response write or flush,
//     outbound HTTP, door call (a lock-order hazard) or call of a
//     function that takes a shard lock itself, however deep.
func LockScope(cfg LockScopeConfig) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "lockscope",
		Doc: "keep shard state behind its lock: selected only by locked/lockAll, passed only as a " +
			"parameter, never copied, never blocked on (channel ops, response writes, HTTP, clock waits, locks)",
	}
	a.Run = func(pass *analysis.Pass) error {
		info, shard, state := pass.TypesInfo, pass.Pkg.Scope().Lookup(shardType), pass.Pkg.Scope().Lookup(stateType)
		if pass.PkgPath() != cfg.Package || shard == nil || state == nil {
			return nil
		}
		statePtr, shardFields := types.NewPointer(state.Type()), map[types.Object]bool{}
		if s, ok := shard.Type().Underlying().(*types.Struct); ok {
			for f := range s.Fields() {
				shardFields[f] = true
			}
		}
		// takers are the functions that take a shard lock: they call a
		// door or another taker (not from a go statement).
		takers := map[types.Object]bool{}
		for grew := true; grew; {
			grew = false
			for _, f := range pass.Files {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && !takers[info.Defs[fd.Name]] {
						ast.Inspect(fd.Body, func(n ast.Node) bool {
							if call, ok := n.(*ast.CallExpr); ok && (isDoor(pass, call) || takers[exprObject(pass, ast.Unparen(call.Fun))]) {
								takers[info.Defs[fd.Name]], grew = true, true
							}
							_, spawn := n.(*ast.GoStmt)
							return !spawn
						})
					}
				}
			}
		}

		// walk checks a body against the parameters its field lists
		// declare; held says it runs under a shard lock, door that it is
		// in locked or lockAll. A go statement's call is walked unheld.
		var walk func(body ast.Node, door, held bool, lists ...*ast.FieldList)
		walk = func(body ast.Node, door, held bool, lists ...*ast.FieldList) {
			objs := map[types.Object]bool{}
			for _, fl := range lists {
				if fl == nil {
					continue
				}
				for _, field := range fl.List {
					held = held || types.Identical(info.TypeOf(field.Type), statePtr)
					for _, name := range field.Names {
						objs[info.Defs[name]] = true
					}
				}
			}
			ast.Inspect(body, func(n ast.Node) bool {
				desc := ""
				switch n := n.(type) {
				case *ast.GoStmt:
					walk(n.Call, false, false)
					return false
				case *ast.FuncLit:
					walk(n.Body, door, held, n.Type.Params)
					return false
				case *ast.SendStmt:
					desc = "channel send"
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						desc = "channel receive"
					}
				case *ast.SelectStmt:
					desc = "select (channel wait)"
				case *ast.RangeStmt:
					if isChannel(info.TypeOf(n.X)) {
						desc = "ranging over a channel"
					}
				case *ast.CallExpr:
					switch obj := exprObject(pass, ast.Unparen(n.Fun)); {
					case isDoor(pass, n):
						desc = "acquiring a shard lock (" + obj.Name() + ", a lock-order hazard)"
					case takers[obj]:
						desc = obj.Name() + " (re-enters the shard locks)"
					default:
						desc = blockingCall(obj)
					}
				}
				if held && desc != "" {
					pass.Reportf(n.Pos(), "%s while a shard lock is held", desc)
				}
				e, ok := n.(ast.Expr)
				tv, typed := info.Types[e]
				if !ok || door || !typed || tv.IsType() {
					return true
				}
				sel, _ := e.(*ast.SelectorExpr)
				_, lit := e.(*ast.CompositeLit)
				switch id, ok := e.(*ast.Ident); {
				case sel != nil && shardFields[info.Uses[sel.Sel]]:
					pass.Reportf(e.Pos(), "%s selects a shard field outside locked and lockAll: "+
						"they are the only way to its lock and state", types.ExprString(e))
				case types.Identical(tv.Type, state.Type()) && !lit:
					pass.Reportf(e.Pos(), "shard state %s is a value, not a literal: "+
						"a copy shares the shard's maps past the lock", types.ExprString(e))
				case types.Identical(tv.Type, statePtr) && (!ok || !objs[info.Uses[id]]):
					pass.Reportf(e.Pos(), "shard state %s is not a parameter of its function: "+
						"the state is handed to a locked body, never kept or captured", types.ExprString(e))
					return false
				}
				return true
			})
		}
		for _, f := range pass.Files {
			if pass.InTestFile(f.Pos()) {
				continue
			}
			inDoorsFile := filepath.Base(pass.Fset.Position(f.Pos()).Filename) == doorsFile
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); !ok {
					walk(decl, false, false)
				} else if fd.Body != nil {
					door := inDoorsFile && (fd.Name.Name == "locked" || fd.Name.Name == "lockAll")
					walk(fd.Body, door, false, fd.Recv, fd.Type.Params)
				}
			}
		}
		return nil
	}
	return a
}

// blockers are the calls that block a critical section, by package
// path, receiver type and name.
var blockers = map[string]string{
	"time.Sleep": "clock wait", "time.After": "clock wait", "time.Tick": "clock wait",
	"mood/internal/clock.Clock.Sleep": "clock wait", "mood/internal/clock.Clock.After": "clock wait",
	"mood/internal/clock.Clock.NewTicker": "clock wait", "sync.WaitGroup.Wait": "goroutine wait",
	"net/http.Get": "outbound HTTP", "net/http.Post": "outbound HTTP", "net/http.Head": "outbound HTTP",
	"net/http.PostForm": "outbound HTTP", "net/http.Client.Do": "outbound HTTP", "net/http.Client.Get": "outbound HTTP",
	"net/http.Client.Post": "outbound HTTP", "net/http.Client.Head": "outbound HTTP", "net/http.Client.PostForm": "outbound HTTP",
	"net/http.ResponseWriter.Write": "response write", "net/http.ResponseWriter.WriteHeader": "response write",
	"net/http.Flusher.Flush": "response flush",
}

// blockingCall describes a call of obj as blocking ("" when it is not).
func blockingCall(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	name := fn.Pkg().Path() + "." + fn.Name()
	if recv := fn.Signature().Recv(); recv != nil {
		name = fn.Pkg().Path() + "." + typeName(recv.Type()) + "." + fn.Name()
	}
	if what, ok := blockers[name]; ok {
		return what + " (" + path.Base(name) + ")"
	}
	return ""
}
