package analysis

import (
	"go/ast"
	"go/types"
)

// Intra-package call resolution. Each declared function or method of
// the analyzed package is a node, and a call resolves to one when it
// names a declaration of the same package directly (calls through
// function values, interfaces that resolve outside the package, or into
// other packages resolve to nothing).
//
// It lets an analyzer follow a call one level — "this go statement
// spawns that method's body" — without whole-program analysis.

// CallGraph indexes the package's function declarations.
type CallGraph struct {
	byObj map[*types.Func]*FuncNode
}

// FuncNode is one declared function or method.
type FuncNode struct {
	Decl *ast.FuncDecl
	Obj  *types.Func
}

// BuildCallGraph indexes the declarations of one type-checked package.
func BuildCallGraph(files []*ast.File, info *types.Info) *CallGraph {
	g := &CallGraph{byObj: map[*types.Func]*FuncNode{}}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
				g.byObj[obj] = &FuncNode{Decl: fd, Obj: obj}
			}
		}
	}
	return g
}

// CalleeOf resolves a call expression to the package-local declaration
// it invokes directly, nil for everything else (builtins, conversions,
// function values, out-of-package calls).
func (g *CallGraph) CalleeOf(info *types.Info, call *ast.CallExpr) *FuncNode {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj, _ := info.Uses[id].(*types.Func)
	return g.byObj[obj]
}
