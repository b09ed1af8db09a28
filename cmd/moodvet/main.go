// Command moodvet runs MooD's repo-specific static analyzers: the
// mechanical form of the disciplines earlier PRs established (see
// README.md, "Static analysis").
//
//	go run ./cmd/moodvet ./...         # the CI gate
//	go run ./cmd/moodvet -json ./...   # the same run as a JSON report
//
// It shells out to `go list -test -deps -export` for the packages,
// their test files included, and type-checks them from the export data
// in the build cache.
//
// Exit status: 0 clean, 2 when diagnostics were reported, 1 when the
// analysis itself failed.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"mood/internal/lint"
	"mood/internal/lint/analysis"
	"mood/internal/lint/load"
)

const modulePath = "mood"

func main() {
	args := os.Args[1:]
	asJSON := false
	if len(args) > 0 && args[0] == "-json" {
		asJSON = true
		args = args[1:]
	}
	if len(args) == 0 || args[0] == "-h" || args[0] == "-help" || args[0] == "--help" {
		usage()
		os.Exit(2)
	}
	os.Exit(standalone(args, asJSON))
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: moodvet [-json] <packages>   (e.g. moodvet ./...)")
	fmt.Fprintln(os.Stderr, "\n-json writes the findings to stdout as a deterministic JSON report")
	fmt.Fprintln(os.Stderr, "(sorted by file/line/column/analyzer) for CI artifacts.\n\nanalyzers:")
	for _, a := range lint.Suite() {
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
	}
}

// jsonFinding is one diagnostic in the -json report.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the -json document: the analyzer roster pins what ran,
// the findings say what it found. Both are sorted so the bytes are a
// deterministic function of the tree.
type jsonReport struct {
	Analyzers []string      `json:"analyzers"`
	Findings  []jsonFinding `json:"findings"`
}

func standalone(patterns []string, asJSON bool) int {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "moodvet:", err)
		return 1
	}
	targets, err := load.Load(wd, modulePath, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "moodvet:", err)
		return 1
	}
	suite := lint.Suite()
	// Test variants (`pkg [pkg.test]`) re-analyze the non-test files of
	// their base package, so the same finding can surface twice; report
	// each position/message once.
	seen := map[string]bool{}
	var all []analysis.Diagnostic
	for _, t := range targets {
		diags, err := analysis.Run(t, suite)
		if err != nil {
			fmt.Fprintln(os.Stderr, "moodvet:", err)
			return 1
		}
		for _, d := range diags {
			line := d.String()
			if seen[line] {
				continue
			}
			seen[line] = true
			all = append(all, d)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].String() < all[j].String() })
	if asJSON {
		return emitJSON(suite, all)
	}
	for _, d := range all {
		fmt.Fprintln(os.Stderr, d.String())
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "moodvet: %d diagnostic(s)\n", len(all))
		return 2
	}
	return 0
}

// emitJSON writes the report to stdout. Same exit contract as the text
// mode: 0 clean, 2 with findings.
func emitJSON(suite []*analysis.Analyzer, diags []analysis.Diagnostic) int {
	rep := jsonReport{Findings: []jsonFinding{}}
	for _, a := range suite {
		rep.Analyzers = append(rep.Analyzers, a.Name)
	}
	sort.Strings(rep.Analyzers)
	for _, d := range diags {
		rep.Findings = append(rep.Findings, jsonFinding{
			File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "moodvet:", err)
		return 1
	}
	fmt.Fprintln(os.Stdout, string(out))
	if len(diags) > 0 {
		return 2
	}
	return 0
}
