package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mood/internal/service"
	"mood/internal/synth"
	"mood/internal/trace"
	"mood/internal/traceio"
)

// upload sends one chunk as a batch of one and fails the test unless the
// chunk was protected and committed.
func upload(t *testing.T, c *service.Client, chunk trace.Trace) {
	t.Helper()
	res, err := c.UploadBatch([]service.BatchChunk{{User: chunk.User, Records: chunk.Records}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != http.StatusOK {
		t.Fatalf("upload: %+v", res[0])
	}
}

// tinyBackground writes a small valid background CSV.
func tinyBackground(t *testing.T, seed uint64) (trace.Dataset, string) {
	t.Helper()
	cfg := synth.PrivamovLike(synth.ScaleTiny, seed)
	cfg.NumUsers = 4
	cfg.Days = 4
	d := synth.MustGenerate(cfg)
	bg := filepath.Join(t.TempDir(), "bg.csv")
	if err := traceio.SaveCSVFile(bg, d); err != nil {
		t.Fatal(err)
	}
	return d, bg
}

func TestRunFlagErrors(t *testing.T) {
	_, bg := tinyBackground(t, 29)
	tests := []struct {
		args []string
		want string // substring of the error; "" = any error
	}{
		{nil, ""}, // missing -background
		{[]string{"-background", "/nonexistent.csv"}, ""},   // unreadable file
		{[]string{"-background", "/dev/null", "-addr"}, ""}, // broken flag
		{[]string{"-background", "/dev/null", "-state", "x"}, "flag provided but not defined: -state"},
		{[]string{"-background", "/dev/null", "-store", "wal"}, "flag provided but not defined: -store"},
		{[]string{"-background", bg, "-wal-dir", os.DevNull, "-fsync", "sometimes"}, "-fsync"},
		// Without -wal-dir the mode used to go unparsed and the server
		// booted; the bad address makes such a boot fail fast instead of
		// serving.
		{[]string{"-background", bg, "-addr", "127.0.0.1:99999", "-fsync", "sometimes"}, "-fsync"},
	}
	for _, tc := range tests {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}

func TestServerServesAfterStartup(t *testing.T) {
	// Write a tiny background and start the real server on an ephemeral
	// port; then probe /healthz.
	_, bg := tinyBackground(t, 31)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	errc := make(chan error, 1)
	go func() { errc <- run([]string{"-background", bg, "-addr", addr}) }()

	deadline := time.After(10 * time.Second)
	for {
		select {
		case err := <-errc:
			t.Fatalf("server exited early: %v", err)
		case <-deadline:
			t.Fatal("server never became healthy")
		default:
		}
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return // success; the goroutine dies with the process
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestGracefulShutdownFlushesState is the regression test for the
// snapshot-loss bug: before graceful shutdown existed, any upload
// accepted since the last minute-tick snapshot was lost on SIGTERM.
// Now cancelling the server must flush a final checkpoint into -wal-dir:
// a snapshot holding the upload, and no log left to replay.
func TestGracefulShutdownFlushesState(t *testing.T) {
	d, bg := tinyBackground(t, 33)
	walDir := t.TempDir()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- runCtx(ctx, []string{"-background", bg, "-addr", addr, "-wal-dir", walDir})
	}()

	c := service.NewClient("http://" + addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.Stats(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became healthy")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// One upload, then immediate shutdown: well inside the one-minute
	// periodic snapshot window, so only the final flush can save it.
	upload(t, c, d.Traces[0].Chunks(24 * time.Hour)[0])
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown returned error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down")
	}

	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !strings.HasPrefix(entries[0].Name(), "snapshot-") {
		t.Fatalf("want exactly the final snapshot in the WAL dir, got %v", entries)
	}
	data, err := os.ReadFile(filepath.Join(walDir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	// The file is in the snapshot codec's binary form; read it the way an
	// operator would (moodctl snapshot).
	doc, err := service.SnapshotJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	var state struct {
		Users map[string]service.UserStats `json:"users"`
	}
	if err := json.Unmarshal(doc, &state); err != nil {
		t.Fatal(err)
	}
	if state.Users[d.Traces[0].User].Uploads < 1 {
		t.Fatalf("snapshot lost the upload: %s", doc)
	}
}

// TestAdminRetrainEndToEnd drives the dynamic-protection wiring through
// the real binary: upload raw chunks, trigger POST /v2/admin/retrain,
// and check the server rebuilt its attacks on background + history,
// re-audited the published dataset, and kept serving uploads.
func TestAdminRetrainEndToEnd(t *testing.T) {
	d, bg := tinyBackground(t, 35)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- runCtx(ctx, []string{"-background", bg, "-addr", addr, "-history-cap", "1000"})
	}()

	c := service.NewClient("http://" + addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.Stats(); err == nil {
			break
		}
		select {
		case err := <-errc:
			t.Fatalf("server exited early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became healthy")
		}
		time.Sleep(100 * time.Millisecond)
	}

	chunk := d.Traces[0].Chunks(24 * time.Hour)[0]
	upload(t, c, chunk)

	report, err := c.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if report.HistoryUsers != 1 || report.HistoryRecords != chunk.Len() {
		t.Fatalf("retrain trained on %d users / %d records, want 1/%d",
			report.HistoryUsers, report.HistoryRecords, chunk.Len())
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Retrains != 1 {
		t.Fatalf("stats after retrain: %+v", st)
	}

	// The swapped engine keeps serving.
	upload(t, c, d.Traces[1].Chunks(24 * time.Hour)[0])

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown returned error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down")
	}
}
