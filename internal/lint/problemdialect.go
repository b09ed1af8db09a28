package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"mood/internal/lint/analysis"
)

// problemdialect pins the error dialect of the wire: every problem code
// that reaches a problem+json sink (writeError, newProblem,
// problemBody) or a code-carrying struct field must be one of the Code*
// constants declared in problem.go, and every declared constant must be
// enumerated by the OpenAPI generator. A string literal at a sink, a
// variable the analyzer cannot trace to the dialect, or a constant the
// OpenAPI document does not know are all diagnostics — so the set of
// codes clients can observe is closed, documented, and greppable.
//
// Codes travel indirectly, so three shapes are allowed beyond a direct
// constant: a read of a carrier field (BatchResult.Code and friends —
// its writes are themselves checked), a code parameter forwarded inside
// another sink (writeError passing its own argument to newProblem), and
// a local variable whose every assignment traces to the dialect —
// including through a call to a package function that provably returns
// only dialect constants at that result position (parseDatasetQuery's
// errCode).
type ProblemDialectConfig struct {
	// PackagePath is the package that owns the dialect.
	PackagePath string
	// Sinks maps function names to the index of their code argument.
	Sinks map[string]int
	// CarrierFields maps type names to the fields that carry a code
	// between its decision point and its sink.
	CarrierFields map[string]map[string]bool
	// ConstPrefix selects the dialect constants ("Code").
	ConstPrefix string
	// OpenAPIFile is the basename of the generator file that must
	// reference every dialect constant; "" disables the check.
	OpenAPIFile string
}

// DefaultProblemDialect encodes the repo shape: problem.go's Code*
// constants, the three sinks, and the BatchResult/Problem carriers,
// cross-checked against openapi.go.
func DefaultProblemDialect() *analysis.Analyzer {
	return ProblemDialect(ProblemDialectConfig{
		PackagePath: "mood/internal/service",
		Sinks: map[string]int{
			"newProblem": 1, "writeError": 2, "problemBody": 1,
			// batchError builds the per-line BatchResult; its code
			// parameter moves the obligation to its call sites.
			"batchError": 3,
			// NewProblem is the exported constructor the cluster router
			// uses; inside the package it forwards to newProblem.
			"NewProblem": 1,
		},
		CarrierFields: map[string]map[string]bool{
			"BatchResult": {"Code": true},
			"Problem":     {"Code": true},
		},
		ConstPrefix: "Code",
		OpenAPIFile: "openapi.go",
	})
}

// ProblemDialect builds the analyzer for the given dialect.
func ProblemDialect(cfg ProblemDialectConfig) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "problemdialect",
		Doc: "require every problem code reaching a problem+json sink to be a declared " +
			"Code* constant, and every declared code to be enumerated in the OpenAPI " +
			"document, so the wire's error dialect is closed and documented",
	}
	a.Run = func(pass *analysis.Pass) error {
		if pass.PkgPath() != cfg.PackagePath {
			return nil
		}
		pd := &dialectChecker{pass: pass, cfg: cfg,
			graph: analysis.BuildCallGraph(pass.Files, pass.TypesInfo),
		}
		pd.checkSites()
		pd.checkOpenAPI()
		return nil
	}
	return a
}

type dialectChecker struct {
	pass  *analysis.Pass
	cfg   ProblemDialectConfig
	graph *analysis.CallGraph
}

// checkSites walks every sink call, carrier composite literal and
// carrier field assignment outside test files.
func (pd *dialectChecker) checkSites() {
	for _, f := range pd.pass.Files {
		var enclosing []*ast.FuncDecl
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok {
				enclosing = append(enclosing, fd)
				return true
			}
			if n == nil {
				return true
			}
			fd := (*ast.FuncDecl)(nil)
			if len(enclosing) > 0 {
				fd = enclosing[len(enclosing)-1]
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				pd.checkSinkCall(n, fd)
			case *ast.CompositeLit:
				pd.checkCarrierLit(n, fd)
			case *ast.AssignStmt:
				pd.checkCarrierAssign(n, fd)
			}
			return true
		})
	}
}

// checkSinkCall validates the code argument of a sink call.
func (pd *dialectChecker) checkSinkCall(call *ast.CallExpr, fd *ast.FuncDecl) {
	name := calleeName(call)
	idx, isSink := pd.cfg.Sinks[name]
	if !isSink || idx >= len(call.Args) {
		return
	}
	// The callee must be this package's sink, not a shadowing local.
	if fn, ok := pd.pass.TypesInfo.Uses[calleeIdent(call)].(*types.Func); !ok || fn.Pkg() != pd.pass.Pkg {
		return
	}
	pd.checkCode(call.Args[idx], fd, name)
}

// checkCarrierLit validates keyed code fields of a carrier composite
// literal.
func (pd *dialectChecker) checkCarrierLit(lit *ast.CompositeLit, fd *ast.FuncDecl) {
	t := namedTypeName(pd.pass.TypesInfo.TypeOf(lit))
	fields, isCarrier := pd.cfg.CarrierFields[t]
	if !isCarrier {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && fields[key.Name] {
			pd.checkCode(kv.Value, fd, t+"."+key.Name)
		}
	}
}

// checkCarrierAssign validates assignments to carrier code fields.
func (pd *dialectChecker) checkCarrierAssign(st *ast.AssignStmt, fd *ast.FuncDecl) {
	for i, lhs := range st.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok || i >= len(st.Rhs) || len(st.Rhs) != len(st.Lhs) {
			continue
		}
		t := namedTypeName(pd.pass.TypesInfo.TypeOf(sel.X))
		if fields, isCarrier := pd.cfg.CarrierFields[t]; isCarrier && fields[sel.Sel.Name] {
			pd.checkCode(st.Rhs[i], fd, t+"."+sel.Sel.Name)
		}
	}
}

// checkCode reports sink arguments that do not trace to the dialect.
func (pd *dialectChecker) checkCode(arg ast.Expr, fd *ast.FuncDecl, sink string) {
	if pd.pass.InTestFile(arg.Pos()) {
		return
	}
	if pd.allowedCode(arg, fd, 1) {
		return
	}
	pd.pass.Reportf(arg.Pos(),
		"problem code reaching %s is not a %s* constant from problem.go: "+
			"the wire's error dialect must stay closed and documented (add a constant, "+
			"not a literal)", sink, pd.cfg.ConstPrefix)
}

// allowedCode reports whether an expression provably carries a dialect
// code. depth bounds the local-variable chase to one hop.
func (pd *dialectChecker) allowedCode(e ast.Expr, fd *ast.FuncDecl, depth int) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.BasicLit:
		return e.Value == `""` // explicit "no code"
	case *ast.Ident:
		obj := pd.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = pd.pass.TypesInfo.Defs[e]
		}
		return pd.allowedObject(obj, fd, depth)
	case *ast.SelectorExpr:
		if c, ok := pd.pass.TypesInfo.Uses[e.Sel].(*types.Const); ok {
			return pd.isDialectConst(c)
		}
		// A read of a carrier field: its writes were checked where they
		// happened.
		t := namedTypeName(pd.pass.TypesInfo.TypeOf(e.X))
		fields, isCarrier := pd.cfg.CarrierFields[t]
		return isCarrier && fields[e.Sel.Name]
	case *ast.CallExpr:
		if fn := pd.graph.CalleeOf(pd.pass.TypesInfo, e); fn != nil {
			return pd.dialectResult(fn, 0)
		}
	}
	return false
}

// allowedObject classifies an identifier's object.
func (pd *dialectChecker) allowedObject(obj types.Object, fd *ast.FuncDecl, depth int) bool {
	switch obj := obj.(type) {
	case *types.Const:
		return pd.isDialectConst(obj)
	case *types.Var:
		// A code parameter is fine inside another sink: the obligation
		// moved to that sink's callers.
		if fd != nil && pd.isParamOf(obj, fd) {
			_, isSink := pd.cfg.Sinks[fd.Name.Name]
			return isSink
		}
		if depth > 0 && fd != nil {
			return pd.localAlwaysDialect(obj, fd, depth-1)
		}
	}
	return false
}

// isDialectConst reports whether c is one of the package's code
// constants.
func (pd *dialectChecker) isDialectConst(c *types.Const) bool {
	return c.Pkg() == pd.pass.Pkg && strings.HasPrefix(c.Name(), pd.cfg.ConstPrefix)
}

// isParamOf reports whether v is a parameter of fd.
func (pd *dialectChecker) isParamOf(v *types.Var, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if pd.pass.TypesInfo.Defs[name] == v {
				return true
			}
		}
	}
	return false
}

// localAlwaysDialect chases a local variable: every assignment to it in
// the enclosing function must trace to the dialect, including through a
// multi-value call whose callee provably returns dialect codes at the
// variable's position.
func (pd *dialectChecker) localAlwaysDialect(v *types.Var, fd *ast.FuncDecl, depth int) bool {
	assigned := false
	ok := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		st, isAssign := n.(*ast.AssignStmt)
		if !isAssign || !ok {
			return ok
		}
		for i, lhs := range st.Lhs {
			id, isIdent := ast.Unparen(lhs).(*ast.Ident)
			if !isIdent {
				continue
			}
			obj := pd.pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pd.pass.TypesInfo.Uses[id]
			}
			if obj != v {
				continue
			}
			assigned = true
			if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
				// Multi-value call: the callee must pin this result.
				call, isCall := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
				if !isCall {
					ok = false
					return false
				}
				fn := pd.graph.CalleeOf(pd.pass.TypesInfo, call)
				if fn == nil || !pd.dialectResult(fn, i) {
					ok = false
					return false
				}
			} else if i < len(st.Rhs) {
				if !pd.allowedCode(st.Rhs[i], fd, depth) {
					ok = false
					return false
				}
			} else {
				ok = false
				return false
			}
		}
		return true
	})
	return assigned && ok
}

// dialectResult reports whether every return of fn carries a dialect
// constant (or "") at result position idx.
func (pd *dialectChecker) dialectResult(fn *analysis.FuncNode, idx int) bool {
	ok := true
	found := false
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet || !ok {
			return ok
		}
		found = true
		if idx >= len(ret.Results) {
			ok = false
			return false
		}
		switch e := ast.Unparen(ret.Results[idx]).(type) {
		case *ast.BasicLit:
			ok = e.Value == `""`
		case *ast.Ident:
			c, isConst := pd.pass.TypesInfo.Uses[e].(*types.Const)
			ok = isConst && pd.isDialectConst(c)
		default:
			ok = false
		}
		return ok
	})
	return found && ok
}

// checkOpenAPI requires every declared dialect constant to be
// referenced by the OpenAPI generator file, so the documented code enum
// cannot drift from the dialect.
func (pd *dialectChecker) checkOpenAPI() {
	if pd.cfg.OpenAPIFile == "" {
		return
	}
	inOpenAPI := map[string]bool{}
	for _, f := range pd.pass.Files {
		name := filepath.Base(pd.pass.Fset.Position(f.Pos()).Filename)
		if name != pd.cfg.OpenAPIFile {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if c, isConst := pd.pass.TypesInfo.Uses[id].(*types.Const); isConst && pd.isDialectConst(c) {
					inOpenAPI[c.Name()] = true
				}
			}
			return true
		})
	}
	type decl struct {
		name string
		pos  ast.Node
	}
	var missing []decl
	for _, f := range pd.pass.Files {
		if pd.pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if c, isConst := pd.pass.TypesInfo.Defs[id].(*types.Const); isConst &&
				pd.isDialectConst(c) && !inOpenAPI[c.Name()] {
				missing = append(missing, decl{name: c.Name(), pos: id})
			}
			return true
		})
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i].pos.Pos() < missing[j].pos.Pos() })
	for _, m := range missing {
		pd.pass.Reportf(m.pos.Pos(),
			"problem code %s is not enumerated by the OpenAPI generator (%s): "+
				"clients discover the error dialect from the document, so every code must "+
				"appear in its enum", m.name, pd.cfg.OpenAPIFile)
	}
}

// calleeName returns the called function's bare name.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// calleeIdent returns the identifier naming the callee.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}
