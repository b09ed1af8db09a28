package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"mood/internal/core"
	"mood/internal/service"
	"mood/internal/synth"
	"mood/internal/trace"
	"mood/internal/traceio"
)

// writeSplit generates a tiny dataset and writes background/raw CSVs.
func writeSplit(t *testing.T) (bg, raw string) {
	t.Helper()
	cfg := synth.PrivamovLike(synth.ScaleTiny, 21)
	cfg.NumUsers = 6
	cfg.Days = 6
	d := synth.MustGenerate(cfg)
	train, test := d.SplitTrainTest(0.5, 20)

	dir := t.TempDir()
	bg = filepath.Join(dir, "bg.csv")
	raw = filepath.Join(dir, "raw.csv")
	if err := traceio.SaveCSVFile(bg, train); err != nil {
		t.Fatal(err)
	}
	if err := traceio.SaveCSVFile(raw, test); err != nil {
		t.Fatal(err)
	}
	return bg, raw
}

func TestProtectThenAttackRoundTrip(t *testing.T) {
	bg, raw := writeSplit(t)
	out := filepath.Join(filepath.Dir(raw), "protected.csv")

	if err := run([]string{"protect", "-background", bg, "-in", raw, "-out", out, "-seed", "21"}); err != nil {
		t.Fatal(err)
	}
	protected, err := traceio.LoadCSVFile(out, "protected")
	if err != nil {
		t.Fatal(err)
	}
	if protected.NumRecords() == 0 {
		t.Fatal("protected dataset is empty")
	}

	if err := run([]string{"attack", "-background", bg, "-in", out}); err != nil {
		t.Fatal(err)
	}
}

func TestProtectGreedyFlag(t *testing.T) {
	bg, raw := writeSplit(t)
	out := filepath.Join(filepath.Dir(raw), "protected.csv")
	if err := run([]string{"protect", "-background", bg, "-in", raw, "-out", out, "-greedy"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUsageErrors(t *testing.T) {
	tests := [][]string{
		nil,
		{"frobnicate"},
		{"protect"},                        // missing flags
		{"attack", "-background", "x.csv"}, // missing -in
		{"protect", "-background", "/nonexistent.csv", "-in", "/nonexistent.csv"},
	}
	for _, args := range tests {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// echoProtector publishes every upload as it came, under a pseudonym.
type echoProtector struct{}

func (echoProtector) Protect(t trace.Trace) (core.Result, error) {
	return core.Result{User: t.User, TotalRecords: t.Len(), Pieces: []core.Piece{{
		Trace: t.WithUser("anon-" + t.User), Mechanism: "echo", SourceRecords: t.Len(),
	}}}, nil
}

// TestSnapshotCommand: the binary state file a server writes prints as
// the JSON operators used to read, a JSON snapshot prints as itself, and
// a file that is neither is an error.
func TestSnapshotCommand(t *testing.T) {
	srv, err := service.New(echoProtector{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	records := []trace.Record{{Lat: 45.7, Lon: 4.8, TS: 1000}, {Lat: 45.8, Lon: 4.9, TS: 1060}}
	res, err := service.NewClient(hs.URL).UploadBatch([]service.BatchChunk{{User: "alice", Records: records}})
	if err != nil || res[0].Status != http.StatusOK {
		t.Fatalf("upload: %v %+v", err, res)
	}
	dir := t.TempDir()
	state := filepath.Join(dir, "state.json")
	if err := srv.SaveState(state); err != nil {
		t.Fatal(err)
	}

	var first bytes.Buffer
	if err := snapshotCmd([]string{state}, &first); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Fragments []struct {
			Owner string      `json:"owner"`
			Trace trace.Trace `json:"trace"`
		} `json:"fragments"`
		Users map[string]service.UserStats `json:"users"`
	}
	if err := json.Unmarshal(first.Bytes(), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, first.Bytes())
	}
	if len(doc.Fragments) != 1 || doc.Fragments[0].Owner != "alice" || doc.Fragments[0].Trace.Len() != 2 ||
		doc.Users["alice"].RecordsPublished != 2 {
		t.Fatalf("printed snapshot: %s", first.Bytes())
	}

	legacy := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacy, first.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := snapshotCmd([]string{legacy}, &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second.Bytes(), first.Bytes()) {
		t.Fatalf("a JSON snapshot did not print as itself:\n%s\n%s", first.Bytes(), second.Bytes())
	}

	if err := os.WriteFile(legacy, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := snapshotCmd([]string{legacy}, &second); err == nil {
		t.Fatal("garbage printed as a snapshot")
	}
	if err := run([]string{"snapshot"}); err == nil {
		t.Fatal("snapshot without a file succeeded")
	}
}
