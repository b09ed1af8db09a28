// Package load turns `go list -export` output into type-checked
// analysis targets using nothing but the standard library: the go
// command resolves and compiles dependencies into the build cache, and
// go/importer's gc importer reads their export data back. This is the
// loader behind moodvet (`moodvet ./...`) and the repo meta-test.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"mood/internal/lint/analysis"
)

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	ForTest    string
	Module     *struct{ Path string }
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load lists the patterns (with -test -deps -export), type-checks every
// package belonging to modulePath, and returns them as analysis
// targets. Generated test-main packages (".test" suffix) are skipped.
func Load(dir, modulePath string, patterns []string) ([]analysis.Target, error) {
	args := append([]string{"list", "-e", "-test", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	var pkgs []*listPackage
	exports := map[string]string{} // import path (incl. test variants) -> export data file
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		pkgs = append(pkgs, &p)
	}

	var targets []analysis.Target
	for _, p := range pkgs {
		if p.Standard || p.Module == nil || p.Module.Path != modulePath {
			continue
		}
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue // generated test main
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		t, err := typecheck(p, exports)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.ImportPath, err)
		}
		targets = append(targets, t)
	}
	return targets, nil
}

// ExportData lists the patterns (with -deps -export) and returns the
// export-data file for every listed package, keyed by import path.
// linttest uses it to type-check fixture packages against real export
// data for their (std-library) imports without the fixtures being
// go-list-able packages themselves.
func ExportData(dir string, patterns []string) (map[string]string, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// typecheck parses and checks one listed package, resolving imports to
// export data via the package's ImportMap (test variants import the
// under-test variant of their dependencies, so the importer must be
// per-package).
func typecheck(p *listPackage, exports map[string]string) (analysis.Target, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range append(append([]string{}, p.GoFiles...), p.CgoFiles...) {
		if !filepath.IsAbs(name) {
			name = filepath.Join(p.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return analysis.Target{}, err
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := p.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return Check(p.ImportPath, fset, files, lookup)
}

// Check runs go/types over the files with a gc-export-data importer
// fed by lookup. The analyzer tests (package linttest) call it
// directly on their fixtures.
func Check(path string, fset *token.FileSet, files []*ast.File, lookup func(string) (io.ReadCloser, error)) (analysis.Target, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	cfg := &types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	pkg, err := cfg.Check(path, fset, files, info)
	if err != nil {
		return analysis.Target{}, err
	}
	return analysis.Target{Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}
