package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"

	"mood/internal/lint/analysis"
)

// problemdialect pins the wire's error dialect. Codes have a named
// type, Code, so the compiler refuses a string variable where a code
// goes; only a constant or a conversion can mint one. In every
// package's non-test files (tests play peers with unknown codes), a
// constant expression of type Code must be "" or a constant declared
// at package level in the dialect's problem.go, conversions to Code
// appear only there, and its openapi.go must enumerate every such
// constant.
type ProblemDialectConfig struct {
	// Package declares Code, in problem.go, and has openapi.go.
	Package string
}

// DefaultProblemDialect encodes the repo shape: service.Code.
func DefaultProblemDialect() *analysis.Analyzer {
	return ProblemDialect(ProblemDialectConfig{Package: "mood/internal/service"})
}

// ProblemDialect builds the analyzer for the given dialect.
func ProblemDialect(cfg ProblemDialectConfig) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "problemdialect",
		Doc: "require every problem code to be a declared Code constant, minted nowhere else " +
			"and enumerated in the OpenAPI document, so the wire's error dialect is closed",
	}
	a.Run = func(pass *analysis.Pass) error {
		info, owner := pass.TypesInfo, pass.PkgPath() == cfg.Package
		isCode := func(t types.Type) bool {
			named, ok := types.Unalias(t).(*types.Named)
			return ok && named.Obj().Name() == "Code" && named.Obj().Pkg() != nil &&
				analysis.BasePkgPath(named.Obj().Pkg().Path()) == cfg.Package
		}
		inFile := func(pos token.Pos, name string) bool {
			return owner && filepath.Base(pass.Fset.Position(pos).Filename) == name
		}
		inOpenAPI := map[*types.Const]bool{}
		// visit stops below a node it has judged: one report per fault.
		visit := func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				for _, name := range n.Names {
					if c, ok := info.Defs[name].(*types.Const); ok && isCode(c.Type()) {
						if !inFile(name.Pos(), "problem.go") || c.Parent() != pass.Pkg.Scope() {
							pass.Reportf(name.Pos(), "Code constant %s declared outside problem.go: "+
								"the dialect is declared in one place", name.Name)
						}
						return false
					}
				}
			case *ast.CallExpr:
				if tv := info.Types[n.Fun]; tv.IsType() && isCode(tv.Type) {
					if !inFile(n.Pos(), "problem.go") {
						pass.Reportf(n.Pos(), "conversion to Code outside problem.go: a problem "+
							"code is one of the declared constants")
					}
					return false
				}
			case ast.Expr:
				if tv := info.Types[n]; tv.Value != nil && isCode(tv.Type) {
					if c := namedConst(info, n); c != nil && isCode(c.Type()) {
						inOpenAPI[c] = inOpenAPI[c] || inFile(n.Pos(), "openapi.go")
					} else if constant.StringVal(tv.Value) != "" {
						pass.Reportf(n.Pos(), "problem code %s is not a Code constant from "+
							"problem.go: the wire's error dialect stays closed (add a constant, "+
							"not a literal)", types.ExprString(n))
					}
					return false
				}
			}
			return true
		}
		for _, f := range pass.Files {
			if !pass.InTestFile(f.Pos()) {
				ast.Inspect(f, visit)
			}
		}
		for _, name := range pass.Pkg.Scope().Names() {
			c, ok := pass.Pkg.Scope().Lookup(name).(*types.Const)
			if ok && isCode(c.Type()) && inFile(c.Pos(), "problem.go") && !inOpenAPI[c] {
				pass.Reportf(c.Pos(), "problem code %s is not enumerated by the OpenAPI "+
					"generator (openapi.go): clients discover the error dialect from its enum", name)
			}
		}
		return nil
	}
	return a
}

// namedConst returns the constant e names, or nil.
func namedConst(info *types.Info, e ast.Expr) *types.Const {
	id, _ := ast.Unparen(e).(*ast.Ident)
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		id = sel.Sel
	}
	c, _ := info.Uses[id].(*types.Const)
	return c
}
