package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"mood/internal/lint/analysis"
)

// appendapply proves the append-then-apply durability discipline
// (durable.go, PR 7) mechanically: inside the service package, every
// mutation of committed state — a write to a state-shard field, or a
// call to one of the mutation entry points of the job and idempotency
// stores — must be dominated on EVERY path by a successful durability
// append, and the storage-refusal branch must return before anything is
// applied.
//
// The proof is a forward must-analysis over each function's CFG. Two
// kinds of facts flow:
//
//   - durable: on every path to here, either the commit batch was
//     appended with a nil error, or no store is configured (the nil
//     branch of the store guard makes durability vacuous).
//   - apguard(err): shorthand for "durable OR err != nil". Assigning
//     err from Store.Append (or from a helper whose summary proves the
//     same contract) establishes it; the err==nil edge of a later check
//     then upgrades it to durable, and the err!=nil edge holds it
//     vacuously — which is exactly why an apply below the error check
//     verifies while an apply above it (or on the refusal branch) does
//     not.
//
// Helpers are summarised through the intra-package call graph:
// "durableOrErr" (every return is durable or carries a non-nil error —
// appendAndApply's contract) lets a caller guard on the helper's error;
// "alwaysDurable" (durable at every exit) makes a bare call a
// durability source. Recovery/replay entry points and the raw apply
// helpers themselves are exempt: replay IS the durability mechanism,
// and the helpers' call sites carry the obligation instead.
type AppendApplyConfig struct {
	// PackagePath is the package under the discipline.
	PackagePath string
	// StateTypes are the named types whose field writes count as
	// applying committed state.
	StateTypes map[string]bool
	// ApplyMethods maps receiver type names to the methods that apply
	// committed state. Methods on these receivers are themselves exempt
	// (the obligation sits at their call sites).
	ApplyMethods map[string]map[string]bool
	// ApplyHelpers are package functions/methods that perform raw
	// applies on behalf of checked callers: their bodies are exempt,
	// their call sites are apply sites.
	ApplyHelpers map[string]bool
	// ExemptFuncs are recovery/replay entry points where applying
	// without a fresh append is the whole point.
	ExemptFuncs map[string]bool
	// AppendFuncs are method names whose returned error guards
	// durability (store.Store's Append).
	AppendFuncs map[string]bool
	// StoreNames are variable/field names holding the configured store:
	// on the nil branch of a `store == nil` check durability is vacuous.
	StoreNames map[string]bool
}

// DefaultAppendApply encodes the repo taxonomy: stateShard/UserStats
// field writes and the jobStore/idemStore mutation entry points are
// applies; the state transitions that live commits and recovery share
// (foldCommit, quarantine) and the raw helpers beneath them are apply
// helpers; Recover and the record and snapshot appliers are exempt.
func DefaultAppendApply() *analysis.Analyzer {
	return AppendApply(AppendApplyConfig{
		PackagePath: "mood/internal/service",
		StateTypes:  map[string]bool{"stateShard": true, "UserStats": true},
		ApplyMethods: map[string]map[string]bool{
			"jobStore":  {"setDone": true, "applyTerminal": true},
			"idemStore": {"complete": true, "applyRestored": true},
		},
		ApplyHelpers: map[string]bool{
			"applyCommit": true, "foldCommit": true, "quarantine": true,
			"removeCondemned": true, "recordHistory": true, "resetShards": true,
		},
		ExemptFuncs: map[string]bool{
			"Recover": true, "applyRecord": true, "applySnapshot": true,
			// The constructor initialises empty shard maps before the
			// server exists: there is no acked state to lose yet.
			"New": true,
		},
		AppendFuncs: map[string]bool{"Append": true},
		StoreNames:  map[string]bool{"store": true},
	})
}

// Helper summaries, ordered by strength.
type apSummary int

const (
	apNone          apSummary = iota
	apDurableOrErr            // returns: durable, or a non-nil error
	apAlwaysDurable           // durable at every exit
)

// AppendApply builds the analyzer for the given taxonomy.
func AppendApply(cfg AppendApplyConfig) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "appendapply",
		Doc: "prove that every apply of committed state in the service tier is dominated " +
			"by a durable append on every path, and that storage refusals return before " +
			"applying (append-then-apply discipline, PR 7)",
	}
	a.Run = func(pass *analysis.Pass) error {
		if pass.PkgPath() != cfg.PackagePath {
			return nil
		}
		ap := &apChecker{pass: pass, cfg: cfg,
			graph:     analysis.BuildCallGraph(pass.Files, pass.TypesInfo),
			summaries: map[*types.Func]apSummary{},
		}
		ap.solveSummaries()
		for _, fn := range ap.graph.Funcs {
			if ap.exempt(fn.Decl) {
				continue
			}
			ap.check(fn.Decl.Body)
			// Function literals (goroutine bodies, deferred cleanups) run
			// at an unknown time: they get their own CFG with nothing
			// durable at entry, so an apply inside one must establish its
			// own durability.
			for _, fl := range funcLits(fn.Decl.Body) {
				ap.check(fl.Body)
			}
		}
		return nil
	}
	return a
}

type apChecker struct {
	pass      *analysis.Pass
	cfg       AppendApplyConfig
	graph     *analysis.CallGraph
	summaries map[*types.Func]apSummary
}

// exempt reports whether a declaration is outside the obligation:
// tests, the replay entry points, the raw apply helpers, and every
// method on a state type or mutation store (the discipline binds their
// callers).
func (ap *apChecker) exempt(fd *ast.FuncDecl) bool {
	if ap.pass.InTestFile(fd.Pos()) {
		return true
	}
	name := fd.Name.Name
	if ap.cfg.ExemptFuncs[name] || ap.cfg.ApplyHelpers[name] {
		return true
	}
	if recv := recvName(ap.pass, fd); recv != "" {
		if ap.cfg.StateTypes[recv] {
			return true
		}
		if _, ok := ap.cfg.ApplyMethods[recv]; ok {
			return true
		}
	}
	return false
}

// recvName returns the receiver's named type, "" for plain functions.
func recvName(pass *analysis.Pass, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	return namedTypeName(pass.TypesInfo.TypeOf(fd.Recv.List[0].Type))
}

// namedTypeName resolves a (possibly pointer) type to its local name.
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// solveSummaries computes helper summaries to a fixpoint: a round may
// strengthen a function once its callees' summaries are known, and
// summaries only ever grow, so this terminates quickly.
func (ap *apChecker) solveSummaries() {
	for changed := true; changed; {
		changed = false
		for _, fn := range ap.graph.Funcs {
			if s := ap.summarize(fn.Decl); s > ap.summaries[fn.Obj] {
				ap.summaries[fn.Obj] = s
				changed = true
			}
		}
	}
}

// summarize classifies one declaration under the current summary set.
func (ap *apChecker) summarize(fd *ast.FuncDecl) apSummary {
	flow, errIdx := ap.buildFlow(fd.Body)
	g := analysis.BuildCFG(fd.Body)
	in := flow.Solve(g)
	if in[g.Exit.Index].Has(0) {
		return apAlwaysDurable
	}
	errPos := errResultIndex(ap.pass, fd.Type)
	if errPos < 0 {
		return apNone
	}
	ok := true
	sawReturn := false
	flow.Walk(g, in, func(n ast.Node, before *analysis.Facts) {
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet || !ok {
			return
		}
		sawReturn = true
		if before.Has(0) {
			return
		}
		ok = ap.returnCarriesError(ret, errPos, before, errIdx)
	})
	if ok && sawReturn {
		return apDurableOrErr
	}
	return apNone
}

// returnCarriesError reports whether the return's error result is
// provably non-nil (or guarded): an apguard'd error ident, a composite
// literal (optionally address-of), or a forwarded call to a helper with
// the durableOrErr contract.
func (ap *apChecker) returnCarriesError(ret *ast.ReturnStmt, errPos int, before *analysis.Facts, errIdx map[types.Object]int) bool {
	if len(ret.Results) == 1 {
		if call, isCall := ast.Unparen(ret.Results[0]).(*ast.CallExpr); isCall {
			if fn := ap.graph.CalleeOf(ap.pass.TypesInfo, call); fn != nil {
				return ap.summaries[fn.Obj] >= apDurableOrErr
			}
			return false
		}
	}
	if errPos >= len(ret.Results) {
		return false // naked return with named results: unproven
	}
	switch e := ast.Unparen(ret.Results[errPos]).(type) {
	case *ast.Ident:
		if i, tracked := errIdx[ap.pass.TypesInfo.Uses[e]]; tracked {
			return before.Has(i)
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, isLit := e.X.(*ast.CompositeLit)
			return isLit
		}
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if fn := ap.graph.CalleeOf(ap.pass.TypesInfo, e); fn != nil {
			return ap.summaries[fn.Obj] >= apDurableOrErr
		}
	}
	return false
}

// check runs the must-analysis over one body and reports every apply
// site the durable fact does not dominate.
func (ap *apChecker) check(body *ast.BlockStmt) {
	flow, _ := ap.buildFlow(body)
	g := analysis.BuildCFG(body)
	in := flow.Solve(g)
	flow.Walk(g, in, func(n ast.Node, before *analysis.Facts) {
		if before.Has(0) {
			return
		}
		ap.reportApplies(n)
	})
}

// reportApplies reports every apply site inside one CFG node (a simple
// statement or condition), without descending into nested function
// literals (they are checked as their own CFGs).
func (ap *apChecker) reportApplies(n ast.Node) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if kind, name := ap.applyCall(node); kind != "" {
				ap.pass.Reportf(node.Pos(),
					"%s %s is not dominated by a durable append on every path to it "+
						"(append-then-apply discipline: commit to the store, check the error, then apply)",
					kind, name)
			}
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				ap.reportStateWrite(lhs)
			}
		case *ast.IncDecStmt:
			ap.reportStateWrite(node.X)
		}
		return true
	})
}

// applyCall classifies a call as an apply-method or apply-helper call.
func (ap *apChecker) applyCall(call *ast.CallExpr) (kind, name string) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", ""
	}
	fn, ok := ap.pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() != ap.pass.Pkg {
		return "", ""
	}
	if recv := fn.Signature().Recv(); recv != nil {
		if t := namedTypeName(recv.Type()); t != "" {
			if ms, isStore := ap.cfg.ApplyMethods[t]; isStore && ms[fn.Name()] {
				return "state mutation", t + "." + fn.Name()
			}
		}
	}
	if ap.cfg.ApplyHelpers[fn.Name()] {
		return "apply helper call", fn.Name()
	}
	return "", ""
}

// reportStateWrite reports an assignment target that is a field of a
// state type (directly or through index/selector chains).
func (ap *apChecker) reportStateWrite(lhs ast.Expr) {
	e := lhs
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			if t := namedTypeName(ap.pass.TypesInfo.TypeOf(x.X)); ap.cfg.StateTypes[t] {
				ap.pass.Reportf(lhs.Pos(),
					"write to %s.%s is not dominated by a durable append on every path to it "+
						"(append-then-apply discipline: commit to the store, check the error, then apply)",
					t, x.Sel.Name)
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// buildFlow constructs the must-analysis for one body: fact 0 is
// durable, facts 1.. are apguard(err) for each error-typed variable the
// body touches.
func (ap *apChecker) buildFlow(body *ast.BlockStmt) (*analysis.MustFlow, map[types.Object]int) {
	errIdx := map[types.Object]int{}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := ap.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = ap.pass.TypesInfo.Uses[id]
		}
		if v, isVar := obj.(*types.Var); isVar && isErrorType(v.Type()) {
			if _, seen := errIdx[v]; !seen {
				errIdx[v] = 1 + len(errIdx)
			}
		}
		return true
	})

	flow := &analysis.MustFlow{NumFacts: 1 + len(errIdx)}
	flow.Transfer = func(n ast.Node, f *analysis.Facts) {
		switch st := n.(type) {
		case *ast.AssignStmt:
			ap.transferAssign(st, f, errIdx)
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
				if fn := ap.graph.CalleeOf(ap.pass.TypesInfo, call); fn != nil &&
					ap.summaries[fn.Obj] == apAlwaysDurable {
					f.Set(0)
				}
			}
		}
	}
	flow.EdgeTransfer = func(cond ast.Expr, branch bool, f *analysis.Facts) {
		ap.transferEdge(cond, branch, f, errIdx)
	}
	return flow, errIdx
}

// transferAssign updates apguard facts for error-typed targets: an
// assignment from a durability source establishes the guard, any other
// assignment revokes it.
func (ap *apChecker) transferAssign(st *ast.AssignStmt, f *analysis.Facts, errIdx map[types.Object]int) {
	source := false
	if len(st.Rhs) == 1 {
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			source = ap.durabilitySource(call, f)
		}
	}
	for _, lhs := range st.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := ap.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = ap.pass.TypesInfo.Uses[id]
		}
		if i, tracked := errIdx[obj]; tracked {
			if source {
				f.Set(i)
			} else {
				f.Clear(i)
			}
		}
	}
}

// durabilitySource reports whether a call's error result guards
// durability: Store.Append itself, or a helper summarised durableOrErr.
// An alwaysDurable callee additionally sets durable outright.
func (ap *apChecker) durabilitySource(call *ast.CallExpr, f *analysis.Facts) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && ap.cfg.AppendFuncs[sel.Sel.Name] {
		return true
	}
	if fn := ap.graph.CalleeOf(ap.pass.TypesInfo, call); fn != nil {
		switch ap.summaries[fn.Obj] {
		case apAlwaysDurable:
			f.Set(0)
			return true
		case apDurableOrErr:
			return true
		}
	}
	return false
}

// transferEdge refines facts along a conditional edge: nil checks of
// tracked error variables upgrade or grant apguard, and the nil branch
// of a store guard makes durability vacuous.
func (ap *apChecker) transferEdge(cond ast.Expr, branch bool, f *analysis.Facts, errIdx map[types.Object]int) {
	cond = ast.Unparen(cond)
	if un, ok := cond.(*ast.UnaryExpr); ok && un.Op == token.NOT {
		ap.transferEdge(un.X, !branch, f, errIdx)
		return
	}
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return
	}
	x := ast.Unparen(bin.X)
	if isNilIdent(ap.pass, x) {
		x = ast.Unparen(bin.Y)
	} else if !isNilIdent(ap.pass, ast.Unparen(bin.Y)) {
		return
	}
	// isNil: the value compared against nil IS nil along this edge.
	isNil := (bin.Op == token.EQL) == branch

	if obj := exprObject(ap.pass, x); obj != nil {
		if i, tracked := errIdx[obj]; tracked {
			if !isNil {
				f.Set(i) // err != nil: apguard holds vacuously
			} else if f.Has(i) {
				f.Set(0) // err == nil under apguard: the append succeeded
			}
			return
		}
		if ap.cfg.StoreNames[objName(x)] && isNil {
			f.Set(0) // no store configured: durability is vacuous
		}
	}
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

// objName returns the rightmost name of an ident or selector.
func objName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.TypesInfo.Uses[id].(*types.Nil)
	return isNil
}

// isErrorType reports whether t can hold an error.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.AssignableTo(t, errorIface)
}

var errorIface = types.Universe.Lookup("error").Type()

// errResultIndex finds the position of the error result in a function
// type, -1 when it has none.
func errResultIndex(pass *analysis.Pass, ftyp *ast.FuncType) int {
	if ftyp.Results == nil {
		return -1
	}
	idx, pos := -1, 0
	for _, field := range ftyp.Results.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			if t != nil && types.Identical(t, errorIface) {
				idx = pos
			}
			pos++
		}
	}
	return idx
}

// funcLits collects every function literal in a body, including nested
// ones (each is checked as an independent CFG).
func funcLits(body *ast.BlockStmt) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			out = append(out, fl)
		}
		return true
	})
	return out
}
