package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTable1Tiny(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-scale", "tiny", "-figure", "table1", "-dataset", "mdc,privamov", "-seed", "3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "mdc", "privamov", "Geneva", "Lyon"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunFig7Tiny(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-scale", "tiny", "-figure", "fig7", "-dataset", "privamov", "-seed", "3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MooD") {
		t.Fatalf("missing MooD column: %s", buf.String())
	}
}

func TestRunFig6UsesSingleAttack(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-scale", "tiny", "-figure", "fig6", "-dataset", "privamov", "-seed", "3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "AP only") {
		t.Fatalf("fig6 must state the single-attack setting: %s", buf.String())
	}
}

func TestRunDynamicFigure(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-scale", "tiny", "-figure", "dynamic", "-seed", "3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dynamic protection") {
		t.Fatalf("missing dynamic table: %s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	tests := [][]string{
		{"-scale", "huge"},
		{"-figure", "fig99", "-scale", "tiny"},
		{"-search", "quantum", "-scale", "tiny"},
	}
	for _, args := range tests {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunRefusesWhatItCannotHonour: an unknown figure is refused before
// anything is evaluated (with -json it used to print the whole run and
// succeed; with an unknown dataset it failed on the dataset instead),
// and the dynamic figure refuses the flags it has no use for rather
// than dropping them — set to anything but their defaults.
func TestRunRefusesWhatItCannotHonour(t *testing.T) {
	tests := []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "tiny", "-figure", "nosuch", "-json"}, `unknown figure "nosuch"`},
		{[]string{"-figure", "nosuch", "-dataset", "nosuch"}, `unknown figure "nosuch"`},
		{[]string{"-scale", "tiny", "-figure", "dynamic", "-json"}, "takes no -json"},
		{[]string{"-scale", "tiny", "-figure", "dynamic", "-dataset", "mdc"}, "takes no -dataset"},
		{[]string{"-scale", "tiny", "-figure", "dynamic", "-search", "greedy"}, "takes no -search"},
		// Explicit defaults change nothing, so they are accepted.
		{[]string{"-scale", "tiny", "-figure", "dynamic", "-json=false", "-dataset", "", "-search", "brute"}, ""},
	}
	for _, tc := range tests {
		var buf bytes.Buffer
		err := run(tc.args, &buf)
		if tc.want == "" {
			if err != nil {
				t.Errorf("run(%v) = %v, want success", tc.args, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error saying %q", tc.args, err, tc.want)
		}
		if buf.Len() != 0 {
			t.Errorf("run(%v) printed %d bytes before refusing", tc.args, buf.Len())
		}
	}
}

func TestRunGreedySearchFlag(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-scale", "tiny", "-figure", "fig7", "-dataset", "privamov", "-search", "greedy", "-seed", "3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "search=greedy") {
		t.Fatalf("footer must echo the search strategy: %s", buf.String())
	}
}

// TestPaperGoldensTiny pins the paper's figures at tiny scale: the JSON
// summary for seeds 42 and 7 must equal the committed goldens byte for
// byte. An engine change that claims bit-identity is held to it here;
// one that moves a figure on purpose regenerates the golden with
//
//	go run ./cmd/moodbench -scale tiny -seed 42 -json > cmd/moodbench/testdata/tiny-seed42.json
//
// (and seed 7 likewise), and says why.
func TestPaperGoldensTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tiny-scale evaluation twice")
	}
	for _, seed := range []string{"42", "7"} {
		t.Run("seed"+seed, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "tiny-seed"+seed+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run([]string{"-scale", "tiny", "-seed", seed, "-json"}, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("moodbench -scale tiny -seed %s -json differs from its golden:\n%s", seed, got.Bytes())
			}
		})
	}
}
