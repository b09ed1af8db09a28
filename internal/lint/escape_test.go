package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mood/internal/lint"
)

// TestHotPathEscapes cross-checks hotalloc's declared hot set against
// the compiler's own escape analysis: `go build -gcflags=-m` over the
// hot packages must report no "escapes to heap"/"moved to heap" inside
// a hot function's line range, except the pinned allowlist of
// intentional allocations (the codec's single sized output buffer, the
// decoders' single sized slices and kept strings, and the waived cold
// error branch). This keeps two views honest at once: the analyzer's static
// rules cannot silently diverge from what the optimizer actually does,
// and a new allocation slipped into a hot body fails here even if it
// dodges every hotalloc pattern.
func TestHotPathEscapes(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles the hot packages with -gcflags=-m")
	}
	cfg := lint.DefaultHotAllocConfig()
	var pkgs []string
	for pkg := range cfg.HotFuncs {
		pkgs = append(pkgs, "./"+strings.TrimPrefix(pkg, "mood/"))
	}

	// Hot-function line ranges, keyed by module-relative file path.
	type span struct {
		fn         string
		start, end int
	}
	ranges := map[string][]span{}
	found := map[string]bool{}
	fset := token.NewFileSet()
	for pkg, hot := range cfg.HotFuncs {
		dir := filepath.Join("../..", strings.TrimPrefix(pkg, "mood/"))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading %s: %v", dir, err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("parsing %s: %v", e.Name(), err)
			}
			rel := strings.TrimPrefix(pkg, "mood/") + "/" + e.Name()
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hot[fd.Name.Name] {
					continue
				}
				found[pkg+"."+fd.Name.Name] = true
				ranges[rel] = append(ranges[rel], span{
					fn:    fd.Name.Name,
					start: fset.Position(fd.Pos()).Line,
					end:   fset.Position(fd.End()).Line,
				})
			}
		}
		// Config drift: a renamed hot function silently leaves the hot
		// set unless its absence fails loudly.
		for name := range hot {
			if !found[pkg+"."+name] {
				t.Errorf("hotalloc config names %s.%s, but no such function exists: "+
					"the hot set has drifted from the code", pkg, name)
			}
		}
	}

	// Intentional allocations inside hot bodies, pinned one by one.
	allowed := []struct{ fn, msg string }{
		{"encodeUploadCommit", "make([]byte"}, // the single sized output buffer, returned by design
		{"frags", "make([]publishedFrag"},     // the single sized fragment slice
		{"decodeUploadCommit", "payload[0]"},  // cold version-error branch, waived for hotalloc too
		{"ParseRecords", "make([]Record"},     // a chunk's or trace's single sized record slice, returned by design
		{"ParseTraces", "make([]Trace"},       // the page's single sized trace slice, returned by design
		{"selectBest", "make([]Piece"},        // a tier's candidates, ranked by utility
		// A frozen heatmap's three result allocations, sized exactly.
		{"FrozenFromTrace", "&Frozen{"},
		{"FrozenFromTrace", "make([]geo.Cell"},
		{"FrozenFromTrace", "make([]float64"},
		// The strings a decoded value keeps (user, key, name, cursor),
		// copied out of the request or response body by ParseString.
		{"ParseString", "string(b)"},
		{"parseTrace", "string(b)"},
		{"parseBatchChunkFast", "string(trace.b)"},
		{"scanDatasetPage", "string(trace.b)"},
	}

	cmd := exec.Command("go", "build", "-gcflags=-m", "-o", os.DevNull)
	cmd.Args = append(cmd.Args, pkgs...)
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	parsed := 0
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		file, lineno, msg, ok := splitEscapeLine(line)
		if !ok {
			continue
		}
		parsed++
		for _, sp := range ranges[file] {
			if lineno < sp.start || lineno > sp.end {
				continue
			}
			ok := false
			for _, a := range allowed {
				if a.fn == sp.fn && strings.Contains(msg, a.msg) {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("%s:%d: allocation inside hot path %s not in the pinned allowlist: %s",
					file, lineno, sp.fn, msg)
			}
		}
	}
	if parsed == 0 {
		t.Fatal("parsed no escape-analysis lines: the -gcflags=-m output format changed, " +
			"or the build cache replayed nothing — the cross-check is vacuous")
	}
}

// splitEscapeLine parses "path/file.go:line:col: message".
func splitEscapeLine(line string) (file string, lineno int, msg string, ok bool) {
	parts := strings.SplitN(line, ":", 4)
	if len(parts) != 4 || !strings.HasSuffix(parts[0], ".go") {
		return "", 0, "", false
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, "", false
	}
	return parts[0], n, strings.TrimSpace(parts[3]), true
}
