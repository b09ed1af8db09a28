package main

import (
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mood/internal/traceio"
)

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "d.csv")
	if err := run([]string{"-dataset", "privamov", "-scale", "tiny", "-seed", "5", "-out", out}); err != nil {
		t.Fatal(err)
	}
	d, err := traceio.LoadCSVFile(out, "d")
	if err != nil {
		t.Fatal(err)
	}
	if d.NumUsers() == 0 || d.NumRecords() == 0 {
		t.Fatalf("empty dataset written: %v", d)
	}
}

func TestRunWritesJSONL(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "d.jsonl")
	if err := run([]string{"-dataset", "privamov", "-scale", "tiny", "-seed", "5", "-out", out, "-format", "jsonl"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := traceio.ReadJSONL(f, "d")
	if err != nil {
		t.Fatal(err)
	}
	if d.NumUsers() == 0 {
		t.Fatal("empty dataset written")
	}
}

func TestRunDeterministicOutput(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.csv")
	b := filepath.Join(dir, "b.csv")
	for _, out := range []string{a, b} {
		if err := run([]string{"-dataset", "privamov", "-scale", "tiny", "-seed", "5", "-out", out}); err != nil {
			t.Fatal(err)
		}
	}
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(bb) {
		t.Fatal("same seed must write identical files")
	}
}

func TestRunErrors(t *testing.T) {
	tests := [][]string{
		{"-dataset", "nope", "-scale", "tiny"},
		{"-dataset", "mdc", "-scale", "huge"},
		{"-dataset", "mdc", "-scale", "tiny", "-format", "xml"},
	}
	for _, args := range tests {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		} else if strings.Contains(err.Error(), "panic") {
			t.Errorf("run(%v) paniced: %v", args, err)
		}
	}
}

func TestRunWritesGzip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "d.csv.gz")
	if err := run([]string{"-dataset", "privamov", "-scale", "tiny", "-seed", "5", "-out", out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	d, err := traceio.ReadCSV(zr, "d")
	if err != nil {
		t.Fatal(err)
	}
	if d.NumUsers() == 0 {
		t.Fatal("empty gzip dataset")
	}
}
