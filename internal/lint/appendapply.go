package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"

	"mood/internal/lint/analysis"
)

// appendapply keeps the append-then-apply discipline (durable.go):
// nothing changes committed state until its WAL record is on the log.
// A type carries the rule. Every apply entry point of the service
// package takes a zero-size durable witness as its first parameter, so
// the compiler refuses an apply that has none. This analyzer checks
// what the type cannot see, in the package's non-test files:
//
//   - a durable literal (a mint) appears only in durable.go, where the
//     appends are;
//   - every other witness expression is an identifier naming a
//     parameter of the innermost enclosing function, so no variable,
//     field, result, *new(durable) or captured function literal holds
//     one: a witness is passed down, never kept;
//   - a field of a state type is written only in a function that has a
//     witness parameter;
//   - a function literal passed to locked or lockAll runs there and
//     then, so it is checked as part of its caller.
type AppendApplyConfig struct {
	// Package declares durable, in durable.go.
	Package string
	// StateTypes are the named types whose field writes apply committed
	// state.
	StateTypes map[string]bool
}

// DefaultAppendApply encodes the repo shape: the service package, whose
// shardState and UserStats hold the committed state.
func DefaultAppendApply() *analysis.Analyzer {
	return AppendApply(AppendApplyConfig{
		Package:    "mood/internal/service",
		StateTypes: map[string]bool{"shardState": true, "UserStats": true},
	})
}

// AppendApply builds the analyzer for the given package.
func AppendApply(cfg AppendApplyConfig) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "appendapply",
		Doc: "keep the durable witness honest: minted only in durable.go, passed only as a " +
			"parameter, and required by every write to committed state (append-then-apply)",
	}
	a.Run = func(pass *analysis.Pass) error {
		if pass.PkgPath() != cfg.Package {
			return nil
		}
		info := pass.TypesInfo
		isDurable := func(t types.Type) bool {
			named, ok := types.Unalias(t).(*types.Named)
			return ok && named.Obj().Name() == "durable" && named.Obj().Pkg() == pass.Pkg
		}
		// walk checks one function body (or a package-level declaration,
		// with ftyp nil) against its own parameters; a function literal
		// inside it is walked on its own, but for a door's.
		inline := map[*ast.FuncLit]bool{}
		var walk func(ftyp *ast.FuncType, body ast.Node, inDurableGo bool)
		walk = func(ftyp *ast.FuncType, body ast.Node, inDurableGo bool) {
			params, witnessed := map[types.Object]bool{}, false
			if ftyp != nil {
				for _, field := range ftyp.Params.List {
					witnessed = witnessed || isDurable(info.TypeOf(field.Type))
					for _, name := range field.Names {
						params[info.Defs[name]] = true
					}
				}
			}
			ast.Inspect(body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isDoor(pass, call) {
					for _, arg := range call.Args {
						fl, _ := arg.(*ast.FuncLit)
						inline[fl] = true
					}
				}
				switch n := n.(type) {
				case *ast.FuncLit:
					if inline[n] {
						return true
					}
					walk(n.Type, n.Body, inDurableGo)
					return false
				case *ast.AssignStmt:
					if !witnessed {
						for _, lhs := range n.Lhs {
							reportStateWrite(pass, cfg.StateTypes, lhs)
						}
					}
				case *ast.IncDecStmt:
					if !witnessed {
						reportStateWrite(pass, cfg.StateTypes, n.X)
					}
				case *ast.CompositeLit:
					if isDurable(info.TypeOf(n)) {
						if !inDurableGo {
							pass.Reportf(n.Pos(), "durable witness minted outside durable.go: "+
								"only a successful append (or replay) makes a state change durable")
						}
						return false
					}
				case ast.Expr:
					if tv, ok := info.Types[n]; !ok || tv.IsType() || !isDurable(tv.Type) {
						return true
					}
					if id, ok := n.(*ast.Ident); ok && params[info.Uses[id]] {
						return false
					}
					pass.Reportf(n.Pos(), "durable witness %s is not a parameter of its function: "+
						"a witness is passed down from the append, never kept or captured", types.ExprString(n))
					return false
				}
				return true
			})
		}
		for _, f := range pass.Files {
			if pass.InTestFile(f.Pos()) {
				continue
			}
			inDurableGo := filepath.Base(pass.Fset.Position(f.Pos()).Filename) == "durable.go"
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); !ok {
					walk(nil, decl, inDurableGo)
				} else if fd.Body != nil {
					walk(fd.Type, fd.Body, inDurableGo)
				}
			}
		}
		return nil
	}
	return a
}

// isDoor reports whether call is the package's own locked or lockAll.
func isDoor(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn, _ := exprObject(pass, ast.Unparen(call.Fun)).(*types.Func)
	return fn != nil && fn.Pkg() == pass.Pkg && (fn.Name() == "locked" || fn.Name() == "lockAll")
}

// reportStateWrite reports an assignment target that is a field of a
// state type (directly or through index/selector chains).
func reportStateWrite(pass *analysis.Pass, stateTypes map[string]bool, lhs ast.Expr) {
	for e := lhs; ; {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			if name := typeName(pass.TypesInfo.TypeOf(x.X)); stateTypes[name] {
				pass.Reportf(lhs.Pos(), "write to %s.%s in a function without a durable witness: "+
					"committed state changes only behind an append", name, x.Sel.Name)
				return
			}
			e = x.X
		default:
			return
		}
	}
}
