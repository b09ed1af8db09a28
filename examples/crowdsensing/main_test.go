package main

import (
	"os"
	"strings"
	"testing"
)

// want is what the campaign prints. The first line ends in the listen
// address and the last in the request latencies, which change from run
// to run, so those two are compared up to that point.
var want = []string{
	"middleware listening at http://",
	"",
	"mdc-u000        4 daily uploads,   680 records accepted,    0 rejected",
	"mdc-u001        4 daily uploads,   424 records accepted,    0 rejected",
	"mdc-u002        4 daily uploads,   480 records accepted,    0 rejected",
	"mdc-u003        4 daily uploads,   410 records accepted,    0 rejected",
	"mdc-u004        4 daily uploads,   421 records accepted,    0 rejected",
	"mdc-u005        4 daily uploads,   419 records accepted,    0 rejected",
	"mdc-u006        4 daily uploads,   453 records accepted,    0 rejected",
	"mdc-u007        4 daily uploads,   477 records accepted,    0 rejected",
	"mdc-u008        4 daily uploads,   425 records accepted,    0 rejected",
	"mdc-u009        4 daily uploads,   447 records accepted,    0 rejected",
	"mdc-u010        4 daily uploads,   455 records accepted,    0 rejected",
	"",
	"campaign: 44 uploads from 11 participants",
	"records: 5091 in, 5091 published (100.0%), 0 rejected",
	"published: 44 pseudonymous traces, correctly re-identified (leaks): 0",
	"server: 11 batch requests, avg ",
}

// TestCrowdsensing runs the campaign in-process and compares its output
// with want, line by line.
func TestCrowdsensing(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("printed %d lines, want %d:\n%s", len(got), len(want), out)
	}
	for i, line := range got {
		if i == 0 || i == len(want)-1 {
			line = line[:min(len(line), len(want[i]))]
		}
		if line != want[i] {
			t.Errorf("line %d: got %q, want %q", i+1, got[i], want[i])
		}
	}
}
