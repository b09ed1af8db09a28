package lint_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mood/internal/lint"
	"mood/internal/lint/analysis"
	"mood/internal/lint/load"
)

// TestRepoIsClean runs the full production suite over the entire module
// (test files included) and demands zero diagnostics: the disciplines
// moodvet enforces hold on moodvet's own repository, waivers included.
// This is the same analysis CI runs via `go run ./cmd/moodvet ./...`.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	targets, err := load.Load("../..", "mood", []string{"./..."})
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(targets) == 0 {
		t.Fatal("loaded no packages")
	}
	suite := lint.Suite()
	seen := map[string]bool{} // test variants re-analyze non-test files
	for _, target := range targets {
		diags, err := analysis.Run(target, suite)
		if err != nil {
			t.Fatalf("%s: %v", target.Pkg.Path(), err)
		}
		for _, d := range diags {
			if line := d.String(); !seen[line] {
				seen[line] = true
				t.Errorf("%s", line)
			}
		}
	}
}

// TestLineBudget is the growth ratchet: every package named in
// line_budget.txt must stay within its budget of non-test lines, so
// growth is a reviewed edit of that file rather than a side effect.
func TestLineBudget(t *testing.T) {
	data, err := os.ReadFile("line_budget.txt")
	if err != nil {
		t.Fatal(err)
	}
	budgets := 0
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		budget, err := strconv.Atoi(fields[len(fields)-1])
		if len(fields) != 2 || err != nil {
			t.Fatalf("line_budget.txt: malformed line %q (want \"<package dir> <lines>\")", line)
		}
		budgets++
		files, err := filepath.Glob(filepath.Join("../..", fields[0], "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", fields[0], err)
		}
		lines := 0
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			lines += bytes.Count(src, []byte("\n"))
		}
		if lines > budget {
			t.Errorf("%s: %d non-test lines, over its budget of %d: delete code, or raise the budget "+
				"in line_budget.txt with a CHANGES.md line that says why", fields[0], lines, budget)
		}
	}
	if budgets == 0 {
		t.Fatal("line_budget.txt names no package")
	}
}

// TestWaiverHygiene proves every //mood:allow in the tree is still
// load-bearing: for each waiver site and each analyzer it names, the
// unfiltered run (RunRaw) must produce a diagnostic from that analyzer
// on the waived line or the line below — i.e. removing the waiver would
// re-surface a finding. A waiver whose finding no longer exists is
// suppression rot: the code moved on and the comment is now licensing
// future violations for free.
func TestWaiverHygiene(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	targets, err := load.Load("../..", "mood", []string{"./..."})
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	suite := lint.Suite()

	// covered["file:line:analyzer"] — raw findings, across all targets
	// (test variants merge in; a finding from any variant keeps the
	// waiver honest).
	covered := map[string]bool{}
	type site struct {
		pos      string
		analyzer string
		keys     []string
	}
	siteSet := map[string]site{}
	for _, target := range targets {
		raw, err := analysis.RunRaw(target, suite)
		if err != nil {
			t.Fatalf("%s: %v", target.Pkg.Path(), err)
		}
		for _, d := range raw {
			covered[fmt.Sprintf("%s:%d:%s", d.Pos.Filename, d.Pos.Line, d.Analyzer)] = true
		}
		for _, w := range analysis.Waivers(target.Fset, target.Files) {
			for _, name := range w.Analyzers {
				if name == "nolint" || !isSuiteAnalyzer(suite, name) {
					continue // unknown names are Run's diagnostic, not ours
				}
				id := fmt.Sprintf("%s:%d:%s", w.Pos.Filename, w.Pos.Line, name)
				siteSet[id] = site{
					pos:      fmt.Sprintf("%s:%d", w.Pos.Filename, w.Pos.Line),
					analyzer: name,
					keys: []string{
						fmt.Sprintf("%s:%d:%s", w.Pos.Filename, w.Pos.Line, name),
						fmt.Sprintf("%s:%d:%s", w.Pos.Filename, w.Pos.Line+1, name),
					},
				}
			}
		}
	}
	if len(siteSet) == 0 {
		t.Fatal("found no waiver sites; the tree is known to carry some")
	}
	for _, s := range siteSet {
		alive := false
		for _, k := range s.keys {
			if covered[k] {
				alive = true
				break
			}
		}
		if !alive {
			t.Errorf("%s: //mood:allow %s suppresses nothing: the %s finding it once "+
				"covered is gone — delete the waiver (or move it to the code that still needs it)",
				s.pos, s.analyzer, s.analyzer)
		}
	}
}

func isSuiteAnalyzer(suite []*analysis.Analyzer, name string) bool {
	for _, a := range suite {
		if a.Name == name {
			return true
		}
	}
	return false
}
