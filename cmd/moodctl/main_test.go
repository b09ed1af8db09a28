package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"mood/internal/core"
	"mood/internal/service"
	"mood/internal/store"
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

// TestSnapshotCommand: the binary snapshot a server checkpoints into its
// WAL directory prints as JSON; that JSON, and a file that is not a
// snapshot at all, are errors.
func TestSnapshotCommand(t *testing.T) {
	dir := t.TempDir()
	w, err := store.NewWAL(store.WALOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(echoProtector{}, service.WithStore(w))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	records := []trace.Record{{Lat: 45.7, Lon: 4.8, TS: 1000}, {Lat: 45.8, Lon: 4.9, TS: 1060}}
	res, err := service.NewClient(hs.URL).UploadBatch([]service.BatchChunk{{User: "alice", Records: records}})
	if err != nil || res[0].Status != http.StatusOK {
		t.Fatalf("upload: %v %+v", err, res)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.json"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots in the WAL dir: %v %v", snaps, err)
	}

	var first bytes.Buffer
	if err := snapshotCmd([]string{snaps[0]}, &first); err != nil {
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

	other := filepath.Join(dir, "other.json")
	for _, content := range [][]byte{first.Bytes(), []byte("not a snapshot")} {
		if err := os.WriteFile(other, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := snapshotCmd([]string{other}, io.Discard); err == nil {
			t.Fatalf("%.20q printed as a snapshot", content)
		}
	}
	if err := run([]string{"snapshot"}); err == nil {
		t.Fatal("snapshot without a file succeeded")
	}
}
