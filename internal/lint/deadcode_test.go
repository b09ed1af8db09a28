package lint_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"

	"mood/internal/lint/analysis"
	"mood/internal/lint/load"
)

// TestNoDeadDeclarations is the dead-surface ratchet: every
// package-level func, method, type, var and const in a non-test file of
// the module must be used by non-test code — the module's own, or the
// benchmark harness in bench/ — unless dead_keep.txt names it with one
// of the four reasons a test-only declaration may stay.
func TestNoDeadDeclarations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module and the benchmark harness")
	}
	decls, err := load.Load("../..", "mood", []string{"./..."})
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	callers, err := load.Load("../../bench", "mood/bench", []string{"./..."})
	if err != nil {
		t.Fatalf("loading the benchmark harness: %v", err)
	}
	if len(decls) == 0 || len(callers) == 0 {
		t.Fatal("loaded no packages")
	}
	data, err := os.ReadFile("dead_keep.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range findDead(decls, callers, "mood", string(data)) {
		t.Error(p)
	}
}

// TestNoDeadDeclarationsFixture runs the scan over a fixture package
// and its own keep-list, where every rule has one case that fails when
// the rule is removed from the scanner.
func TestNoDeadDeclarationsFixture(t *testing.T) {
	targets, err := load.Load(".", "mood", []string{"./testdata/deadcode"})
	if err != nil {
		t.Fatalf("loading the fixture: %v", err)
	}
	data, err := os.ReadFile("testdata/deadcode/dead_keep.txt")
	if err != nil {
		t.Fatal(err)
	}
	const fx = "mood/internal/lint/testdata/deadcode."
	got := findDead(targets, nil, "mood", string(data))
	want := []string{
		`dead_keep.txt:5: "` + fx + `Total because it is"`,
		`dead_keep.txt:6: "` + fx + `Public public API"`,
		fx + `OnlyTested is declared at`,
		fx + `Public is declared at`,
		fx + `orphan is declared at`,
		`dead_keep.txt: ` + fx + `Called is kept as test seam, but non-test code uses it`,
		`dead_keep.txt: ` + fx + `Gone is kept as test seam, but no non-test file declares it`,
	}
	for _, w := range want {
		found := false
		for i, g := range got {
			if strings.HasPrefix(g, w) {
				got = append(got[:i], got[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no problem reported starting with %q", w)
		}
	}
	for _, g := range got {
		t.Errorf("unexpected problem: %s", g)
	}
}

// deadReasons are the only reasons a keep-list line may give.
var deadReasons = map[string]bool{
	"public API":       true, // the root package's exported surface, documented for users
	"test seam":        true, // lets a test drive or observe what production wires in itself
	"interface method": true, // called only through an anonymous interface
	"test oracle":      true, // a reference implementation tests compare against
}

// declUse is one scanned declaration and the kinds of code that use it.
type declUse struct {
	pos      token.Position
	obj      types.Object
	prodUsed bool
}

// findDead returns one problem per unused declaration of decls and per
// bad keep-list line. callers are packages whose uses count but whose
// own declarations are not scanned. Only the package at root may keep
// a name as public API: any other package of the module is internal, so
// nothing outside the module can call it.
func findDead(decls, callers []analysis.Target, root, keepList string) []string {
	keep, problems := parseKeep(keepList, root)

	scanned := map[string]*declUse{}
	for _, t := range decls {
		for _, f := range t.Files {
			if isTestFile(t.Fset, f) {
				continue
			}
			for _, d := range f.Decls {
				for _, id := range declaredNames(d) {
					obj := t.Info.Defs[id]
					if obj == nil || exemptName(obj) {
						continue
					}
					if key := declKey(obj); scanned[key] == nil {
						scanned[key] = &declUse{pos: t.Fset.Position(id.Pos()), obj: obj}
					}
				}
			}
		}
	}

	all := append(append([]analysis.Target{}, decls...), callers...)
	for i, t := range all {
		for _, f := range t.Files {
			if isTestFile(t.Fset, f) {
				continue
			}
			for _, d := range f.Decls {
				markUses(t.Info, d, scanned, i >= len(decls))
			}
		}
	}
	exempt := interfaceMethods(all, scanned)

	keys := make([]string, 0, len(scanned))
	for k := range scanned {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		u := scanned[k]
		if u.prodUsed || exempt[k] || keep[k] != "" {
			continue
		}
		problems = append(problems, fmt.Sprintf("%s is declared at %s, but only tests use it, or nothing: "+
			"delete it, or add it to dead_keep.txt with its reason and a CHANGES.md line", k, u.pos))
	}

	ids := make([]string, 0, len(keep))
	for id := range keep {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		u := scanned[id]
		switch {
		case u == nil:
			problems = append(problems, fmt.Sprintf("dead_keep.txt: %s is kept as %s, but no non-test file declares it", id, keep[id]))
		case u.prodUsed || exempt[id]:
			problems = append(problems, fmt.Sprintf("dead_keep.txt: %s is kept as %s, but non-test code uses it", id, keep[id]))
		}
	}
	return problems
}

// parseKeep reads a keep-list: one "<identifier> <reason>" per line,
// blank lines and #-comments skipped.
func parseKeep(data, root string) (map[string]string, []string) {
	keep := map[string]string{}
	var problems []string
	for i, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		switch {
		case !deadReasons[reason]:
			problems = append(problems, fmt.Sprintf("dead_keep.txt:%d: %q: the reason must be one of "+
				"public API, test seam, interface method, test oracle", i+1, line))
		case reason == "public API" && !strings.HasPrefix(id, root+"."):
			problems = append(problems, fmt.Sprintf("dead_keep.txt:%d: %q: only package %s has a public API", i+1, line, root))
		default:
			keep[id] = reason
		}
	}
	return keep, problems
}

// isAssertion reports a spec that declares only blank names.
func isAssertion(s *ast.ValueSpec) bool {
	for _, id := range s.Names {
		if id.Name != "_" {
			return false
		}
	}
	return true
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}

// declaredNames returns the package-level names a declaration
// introduces. Blank names are left out: `var _ I = T{}` declares
// nothing.
func declaredNames(d ast.Decl) []*ast.Ident {
	var ids []*ast.Ident
	switch d := d.(type) {
	case *ast.FuncDecl:
		ids = append(ids, d.Name)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
	}
	var named []*ast.Ident
	for _, id := range ids {
		if id.Name != "_" {
			named = append(named, id)
		}
	}
	return named
}

// exemptName reports the functions the toolchain calls: init, and main
// in a command.
func exemptName(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Signature().Recv() == nil &&
		(fn.Name() == "init" || fn.Name() == "main" && fn.Pkg().Name() == "main")
}

// declKey names a package-level object the same way in every loaded
// package, test variants and export data included:
// "<import path>.<name>" or "<import path>.<receiver type>.<method>".
// Objects that are not package-level get "".
func declKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	path := analysis.BasePkgPath(obj.Pkg().Path())
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Signature().Recv(); recv != nil {
			named := namedOf(recv.Type())
			if named == nil {
				return ""
			}
			return path + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return path + "." + obj.Name()
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	if named != nil {
		named = named.Origin()
	}
	return named
}

// markUses records the scanned declarations that d uses. A use does not
// count inside the declaration it names — a recursive call, a type
// that points to itself, a method of the receiver type — nor inside a
// blank `var _ I = T{}` assertion, which exists only to be checked.
// In a caller, whose own declarations are not scanned, an assertion
// counts: deleting what it names would break the caller's build.
func markUses(info *types.Info, d ast.Decl, scanned map[string]*declUse, caller bool) {
	own := map[string]bool{}
	for _, id := range declaredNames(d) {
		if obj := info.Defs[id]; obj != nil {
			own[declKey(obj)] = true
		}
	}
	if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
		if obj := info.Defs[fd.Name]; obj != nil {
			if named := namedOf(obj.(*types.Func).Signature().Recv().Type()); named != nil {
				own[declKey(named.Obj())] = true
			}
		}
	}
	ast.Inspect(d, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			if !caller && isAssertion(n) {
				return false
			}
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil {
				return true
			}
			if key := declKey(obj); !own[key] && scanned[key] != nil {
				scanned[key].prodUsed = true
			}
		}
		return true
	})
}

// interfaceMethods returns the unused methods that implement a method
// of a non-empty named interface — the interface's callers reach them
// without naming them. Each loaded package is checked against the
// interfaces it declares and those of its direct imports (plus the
// predeclared error), in its own type universe, so the receiver and the
// interface are comparable.
func interfaceMethods(targets []analysis.Target, scanned map[string]*declUse) map[string]bool {
	byName := map[string][]string{} // method name -> keys of unused methods
	for k, u := range scanned {
		if fn, ok := u.obj.(*types.Func); ok && !u.prodUsed && fn.Signature().Recv() != nil {
			byName[fn.Name()] = append(byName[fn.Name()], k)
		}
	}
	exempt := map[string]bool{}
	for _, t := range targets {
		pkgs := append([]*types.Package{t.Pkg}, t.Pkg.Imports()...)
		ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
		for _, p := range pkgs {
			for _, name := range p.Scope().Names() {
				named, ok := p.Scope().Lookup(name).Type().(*types.Named)
				if !ok || named.TypeParams().Len() > 0 {
					continue
				}
				if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				for _, k := range byName[it.Method(i).Name()] {
					if !exempt[k] && implementedIn(pkgs, scanned[k].obj.(*types.Func), it) {
						exempt[k] = true
					}
				}
			}
		}
	}
	return exempt
}

// implementedIn reports whether the receiver type of method fn, as the
// packages pkgs see it, or a pointer to it, implements it.
func implementedIn(pkgs []*types.Package, fn *types.Func, it *types.Interface) bool {
	recv := namedOf(fn.Signature().Recv().Type())
	path := analysis.BasePkgPath(fn.Pkg().Path())
	for _, p := range pkgs {
		if analysis.BasePkgPath(p.Path()) != path {
			continue
		}
		obj, ok := p.Scope().Lookup(recv.Obj().Name()).(*types.TypeName)
		if !ok {
			return false
		}
		return types.Implements(obj.Type(), it) || types.Implements(types.NewPointer(obj.Type()), it)
	}
	return false
}
