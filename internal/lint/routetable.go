package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"mood/internal/lint/analysis"
)

// RouteTableConfig scopes the routetable analyzer.
type RouteTableConfig struct {
	// Package is the service package owning the route table.
	Package string
	// MuxFiles are the basenames allowed to construct and register on
	// ServeMuxes (the route-table assembly).
	MuxFiles map[string]bool
	// ErrorFiles are the basenames allowed to write error statuses and
	// problem documents directly (the dialect primitives).
	ErrorFiles map[string]bool
}

// DefaultRouteTable is the repo rule from PR 5: routes.go is the single
// source of truth for routing, problem.go for error rendering. Handlers
// reach errors only through writeError, which renders every error as
// problem+json.
func DefaultRouteTable() *analysis.Analyzer {
	return RouteTable(RouteTableConfig{
		Package:    "mood/internal/service",
		MuxFiles:   map[string]bool{"routes.go": true},
		ErrorFiles: map[string]bool{"problem.go": true},
	})
}

// RouteTable builds the analyzer for the given scope. Inside the
// service package (tests exempt — they build probe servers freely) it
// flags:
//
//   - ServeMux construction or Handle/HandleFunc registration outside
//     MuxFiles: a handler mounted around the route table dodges the
//     middleware exemptions, metrics labels and the OpenAPI document;
//   - net/http.Error calls anywhere: it answers with a text/plain body
//     instead of a problem+json document;
//   - ResponseWriter.WriteHeader with a constant status >= 400 outside
//     ErrorFiles: error statuses must flow through writeError so the
//     body is a problem document;
//   - writeProblem calls outside ErrorFiles: writeError is the one
//     error sink, so every error status is answered with a typed Code.
func RouteTable(cfg RouteTableConfig) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "routetable",
		Doc: "keep the declarative route table the single source of routing and error-dialect " +
			"truth in internal/service (PR 5)",
	}
	a.Run = func(pass *analysis.Pass) error {
		if pass.PkgPath() != cfg.Package {
			return nil
		}
		for _, f := range pass.Files {
			pos := pass.Fset.Position(f.Pos())
			base := filepath.Base(pos.Filename)
			if pass.InTestFile(f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkRouteCall(pass, cfg, base, call)
				return true
			})
		}
		return nil
	}
	return a
}

func checkRouteCall(pass *analysis.Pass, cfg RouteTableConfig, file string, call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		// Local helpers: writeProblem outside the error files.
		if fun.Name == "writeProblem" && !cfg.ErrorFiles[file] {
			if obj := pass.TypesInfo.Uses[fun]; obj != nil && obj.Pkg() == pass.Pkg {
				pass.Reportf(call.Pos(),
					"writeProblem called outside %s: errors are rendered through writeError "+
						"(routetable, PR 5)", fileList(cfg.ErrorFiles))
			}
		}
		return
	case *ast.SelectorExpr:
		fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return
		}
		if fn.Pkg().Path() != "net/http" {
			return
		}
		recv := fn.Signature().Recv()
		switch {
		case recv == nil && fn.Name() == "Error":
			pass.Reportf(call.Pos(),
				"http.Error bypasses the route table's error dialect: use writeError (routetable, PR 5)")
		case recv == nil && (fn.Name() == "NewServeMux" || fn.Name() == "Handle" || fn.Name() == "HandleFunc"):
			if !cfg.MuxFiles[file] {
				pass.Reportf(call.Pos(),
					"http.%s outside %s: all routing is declared in the route table (routetable, PR 5)",
					fn.Name(), fileList(cfg.MuxFiles))
			}
		case recv != nil && recvTypeName(recv) == "ServeMux" &&
			(fn.Name() == "Handle" || fn.Name() == "HandleFunc"):
			if !cfg.MuxFiles[file] {
				pass.Reportf(call.Pos(),
					"ServeMux.%s outside %s: all routing is declared in the route table (routetable, PR 5)",
					fn.Name(), fileList(cfg.MuxFiles))
			}
		case recv != nil && recvTypeName(recv) == "ResponseWriter" && fn.Name() == "WriteHeader":
			if cfg.ErrorFiles[file] || len(call.Args) != 1 {
				return
			}
			if status, ok := constInt(pass, call.Args[0]); ok && status >= 400 {
				pass.Reportf(call.Pos(),
					"WriteHeader(%d) writes an error status directly: use writeError so the body "+
						"is a problem document (routetable, PR 5)", status)
			}
		}
	}
}

// recvTypeName returns the bare type name of a method receiver
// (pointer and named wrappers stripped).
func recvTypeName(recv *types.Var) string {
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// constInt evaluates expr as a constant int (literal or named constant
// like http.StatusBadRequest).
func constInt(pass *analysis.Pass, expr ast.Expr) (int64, bool) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// fileList renders an allowlist for diagnostics ("problem.go" or
// "problem.go/routes.go").
func fileList(files map[string]bool) string {
	names := make([]string, 0, len(files))
	for f := range files {
		names = append(names, f)
	}
	sort.Strings(names)
	return strings.Join(names, "/")
}
