package lint

import (
	"go/ast"
	"go/types"

	"mood/internal/lint/analysis"
)

// hotalloc guards the declared hot paths — the Frozen heatmap scans the
// attack kernels spin on, the engine's candidate tier and the LPPM
// kernels it runs (HMC's target scan, geo.Destination), the WAL codec
// that runs once per acked upload, the trace line's codec (encoder,
// scanner, key reader) and its callers in the batch parser, the
// node's page writer, the router's splice and the client — against the
// allocation patterns that keep showing up in profiles:
//
//   - fmt.* calls (Sprintf boxes every argument and formats through
//     reflection);
//   - closures that capture outer variables by reference (the capture
//     forces the variable to the heap, and the closure itself
//     allocates);
//   - append to a slice that was never preallocated in the function
//     (builder parameters are exempt: appending to a caller-provided
//     buffer is the idiom the codec is built on);
//   - boxing a scalar into an interface argument.
//
// The list of hot functions is declarative configuration, and
// TestHotPathEscapes cross-checks it against the compiler's own escape
// analysis (go build -gcflags=-m), so the analyzer's static view and
// the optimizer's verdict cannot silently diverge.
type HotAllocConfig struct {
	// HotFuncs maps package paths to the function/method names whose
	// bodies are hot.
	HotFuncs map[string]map[string]bool
}

// DefaultHotAlloc declares the repo's hot paths: the Frozen scan
// methods and their float32 prune, the engine's candidate tier, HMC's
// target scan, geo.Destination, the WAL codec, the trace line's codec,
// the batch chunk fast parser, the node's dataset page writer, the
// router's dataset line splitter and the client's dataset page scanner
// and upload line encoder.
func DefaultHotAlloc() *analysis.Analyzer {
	return HotAlloc(DefaultHotAllocConfig())
}

// DefaultHotAllocConfig is exported so TestHotPathEscapes verifies the
// same function set against the compiler's escape analysis.
func DefaultHotAllocConfig() HotAllocConfig {
	return HotAllocConfig{
		HotFuncs: map[string]map[string]bool{
			"mood/internal/heatmap": {
				"Topsoe": true, "TopsoeBounded": true,
				// The float32 prune kernel: one walk per (trace,
				// profile) pair of every AP scan.
				"TopsoeQuantBounded": true, "fastLog32": true,
				// The quantized prune of the AP scans and HMC's target
				// scan: once per (trace, profile) pair. (Quantize itself
				// is freeze-time, not hot.)
				"Prune": true,
			},
			"mood/internal/core": {
				// One tier of the Best LPPM Selection: every candidate of
				// every fragment the engine protects.
				"selectBest": true,
			},
			"mood/internal/lppm": {
				// HMC's target scan: every background profile, once per
				// HMC obfuscation.
				"pickTarget": true,
			},
			"mood/internal/geo": {
				// GeoI and TRL call it once per record.
				"Destination": true,
			},
			"mood/internal/service": {
				"parseBatchChunkFast": true,
				"encodeUploadCommit":  true, "decodeUploadCommit": true,
				"appendString": true, "appendRecords": true,
				// The commit decoder's fragment loop (shared with the
				// snapshot decoder).
				"frags": true,
				// The client's dataset page scanner and upload line
				// encoder: once per page read, once per chunk sent.
				"scanDatasetPage": true, "appendLine": true,
				// The node's dataset page writer: once per JSON or NDJSON
				// page served, a splice of cached lines. (Filling a slot,
				// once per trace and version, is the cache's allocation.)
				"appendPage": true,
			},
			"mood/internal/trace": {
				// The trace line's codec: the encoder runs once per trace
				// a node pages out, the scanner once per chunk uploaded
				// and per trace a client reads, the key reader once per
				// line the router merges.
				"AppendRecordsJSON": true, "AppendTraceJSON": true, "AppendTraceHead": true,
				"AppendJSONString": true, "appendJSONFloat": true,
				"ScanRecords": true, "LineKey": true,
				"Field": true, "ParseString": true, "parseRawString": true, "ParseBool": true,
				"ParseInt": true, "ParseRecords": true, "ParseTraces": true,
				"parseTrace": true, "parseRecord": true,
				// The number reader and its exact conversions, and the
				// encoder's record shape matched byte for byte: three
				// numbers and three literals per record read.
				"number": true, "digits": true,
				"parseFloat": true, "parseInt64": true, "encodedRecord": true, "literal": true,
			},
			"mood/internal/cluster": {
				// The router's dataset splice: the line splitter runs once
				// per line merged, and must stay the only per-line cost of
				// a page besides trace.LineKey.
				"advance": true,
			},
		},
	}
}

// HotAlloc builds the analyzer for the given hot set.
func HotAlloc(cfg HotAllocConfig) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "hotalloc",
		Doc: "forbid fmt calls, by-reference closure captures, appends without " +
			"preallocation and scalar interface boxing inside the declared hot paths " +
			"(Frozen scans, engine tier, HMC target scan, Destination, WAL codec, " +
			"trace line codec, batch fast parser, dataset page writer, splice and scanner)",
	}
	a.Run = func(pass *analysis.Pass) error {
		hot := cfg.HotFuncs[pass.PkgPath()]
		if len(hot) == 0 {
			return nil
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hot[fd.Name.Name] {
					continue
				}
				if pass.InTestFile(fd.Pos()) {
					continue
				}
				ha := &hotChecker{pass: pass, fd: fd}
				ha.check()
			}
		}
		return nil
	}
	return a
}

type hotChecker struct {
	pass *analysis.Pass
	fd   *ast.FuncDecl
}

func (ha *hotChecker) check() {
	prealloc := ha.preallocated()
	ast.Inspect(ha.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			ha.checkCaptures(n)
			// The literal's own body stays under the same rules.
			return true
		case *ast.CallExpr:
			ha.checkCall(n, prealloc)
		}
		return true
	})
}

// preallocated collects objects (and field names) a make with explicit
// sizing is assigned to anywhere in the function: appends to them reuse
// capacity instead of growing.
func (ha *hotChecker) preallocated() map[string]bool {
	out := map[string]bool{}
	ast.Inspect(ha.fd.Body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Lhs) != len(st.Rhs) {
			return true
		}
		for i, rhs := range st.Rhs {
			call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
			if !isCall {
				continue
			}
			if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); !isIdent || id.Name != "make" || len(call.Args) < 2 {
				continue
			}
			if key := ha.targetKey(st.Lhs[i]); key != "" {
				out[key] = true
			}
		}
		return true
	})
	return out
}

// targetKey names an assignment/append target: a local's object key or
// a selector chain's rightmost field name.
func (ha *hotChecker) targetKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := ha.objOf(e); obj != nil {
			return "obj:" + ha.pass.Fset.Position(obj.Pos()).String()
		}
	case *ast.SelectorExpr:
		return "field:" + e.Sel.Name
	}
	return ""
}

func (ha *hotChecker) objOf(id *ast.Ident) types.Object {
	if obj := ha.pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return ha.pass.TypesInfo.Defs[id]
}

// checkCall flags fmt calls, unsized appends and scalar boxing.
func (ha *hotChecker) checkCall(call *ast.CallExpr, prealloc map[string]bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := ha.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok &&
			fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			ha.pass.Reportf(call.Pos(),
				"fmt.%s in hot path %s: formatting boxes its arguments and walks "+
					"reflection; build the string by hand or move the call off the hot path",
				fn.Name(), ha.fd.Name.Name)
			return
		}
	case *ast.Ident:
		if fun.Name == "append" && len(call.Args) > 0 {
			ha.checkAppend(call, prealloc)
			return
		}
	}
	ha.checkBoxing(call)
}

// checkAppend requires the append target to be a builder parameter or a
// slice the function preallocated with an explicit size.
func (ha *hotChecker) checkAppend(call *ast.CallExpr, prealloc map[string]bool) {
	target := ast.Unparen(call.Args[0])
	if id, ok := target.(*ast.Ident); ok {
		if v, isVar := ha.objOf(id).(*types.Var); isVar && ha.isParam(v) {
			return // builder idiom: the caller owns the buffer
		}
	}
	if key := ha.targetKey(target); key != "" && prealloc[key] {
		return
	}
	ha.pass.Reportf(call.Pos(),
		"append without preallocation in hot path %s: size the slice with make(..., n) "+
			"up front (or take the buffer as a parameter) so the loop does not regrow it",
		ha.fd.Name.Name)
}

// isParam reports whether v is a parameter of the hot function.
func (ha *hotChecker) isParam(v *types.Var) bool {
	if ha.fd.Type.Params == nil {
		return false
	}
	for _, field := range ha.fd.Type.Params.List {
		for _, name := range field.Names {
			if ha.pass.TypesInfo.Defs[name] == v {
				return true
			}
		}
	}
	return false
}

// checkCaptures flags closures that capture enclosing locals by
// reference: the capture pins those variables to the heap on every
// call.
func (ha *hotChecker) checkCaptures(fl *ast.FuncLit) {
	captured := map[string]bool{}
	var names []string
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, isVar := ha.pass.TypesInfo.Uses[id].(*types.Var)
		if !isVar || v.IsField() {
			return true
		}
		// Captured: declared in the enclosing function (parameters
		// included), outside the literal.
		if v.Pos() >= ha.fd.Pos() && v.Pos() < fl.Pos() {
			if !captured[v.Name()] {
				captured[v.Name()] = true
				names = append(names, v.Name())
			}
		}
		return true
	})
	if len(names) == 0 {
		return
	}
	list := names[0]
	for _, n := range names[1:] {
		list += ", " + n
	}
	ha.pass.Reportf(fl.Pos(),
		"closure in hot path %s captures %s by reference, forcing the captured "+
			"variables to the heap: restructure into a method on a parser/scanner struct",
		ha.fd.Name.Name, list)
}

// checkBoxing flags scalar arguments passed in interface positions.
func (ha *hotChecker) checkBoxing(call *ast.CallExpr) {
	tv, ok := ha.pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	sig, isSig := tv.Type.(*types.Signature)
	if !isSig {
		return // builtin or conversion
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, isSlice := params.At(params.Len() - 1).Type().(*types.Slice); isSlice {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := ha.pass.TypesInfo.TypeOf(arg)
		if at == nil {
			continue
		}
		if b, isBasic := at.Underlying().(*types.Basic); isBasic && b.Kind() != types.UntypedNil {
			ha.pass.Reportf(arg.Pos(),
				"scalar %s boxed into an interface argument in hot path %s: every call "+
					"allocates to carry the value; use a concrete-typed helper instead",
				at.String(), ha.fd.Name.Name)
		}
	}
}
