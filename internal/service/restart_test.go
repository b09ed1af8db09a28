package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"mood/internal/trace"
)

// TestRestartRecoveryEndToEnd is the full restart drill: upload (sync,
// keyed, async), quarantine via a retrain pass, snapshot, boot a fresh
// server from the snapshot, and verify the published dataset, the user
// accounting, the global stats and keyed-retry replay all survived the
// restart bit for bit.
func TestRestartRecoveryEndToEnd(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "state.json")
	rt := RetrainerFunc(func(history []trace.Trace) (Protector, Auditor, error) {
		return nil, ownerAuditor{prefix: "drift-"}, nil
	})
	newServer := func(mark string) (*Server, *httptest.Server) {
		srv, err := New(&markedProtector{mark: mark}, WithRetrainer(rt, 0))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		return srv, hs
	}

	srv1, hs1 := newServer("gen0")
	orig := postChunk(t, hs1.URL, keyed("alice", "chunk-2026-07-28", 10))
	for _, c := range []BatchChunk{keyed("bob", "", 7), keyed("drift-mallory", "", 5)} {
		if res := postChunk(t, hs1.URL, c); res.Status != http.StatusOK {
			t.Fatalf("upload %s: %+v", c.User, res)
		}
	}
	if orig.Status != http.StatusOK {
		t.Fatalf("upload alice: %+v", orig)
	}

	// A retrain pass quarantines drift-mallory's fragment, so the
	// snapshot carries quarantine accounting and a retrain count too.
	if _, err := srv1.Retrain(); err != nil {
		t.Fatal(err)
	}

	if err := srv1.SaveState(statePath); err != nil {
		t.Fatal(err)
	}

	wantStats := srv1.Stats()
	wantUsers := srv1.Users()
	wantDataset := trace.NewDataset("published", srv1.publishedSnapshot())
	_, _, wantUserStats := srv1.fullSnapshot()

	srv2, hs2 := newServer("gen0")
	if err := srv2.LoadState(statePath); err != nil {
		t.Fatal(err)
	}

	if got := srv2.Stats(); !reflect.DeepEqual(got, wantStats) {
		t.Fatalf("stats after restart:\n got %+v\nwant %+v", got, wantStats)
	}
	if got := srv2.Users(); !reflect.DeepEqual(got, wantUsers) {
		t.Fatalf("users after restart: %v want %v", got, wantUsers)
	}
	gotDataset := trace.NewDataset("published", srv2.publishedSnapshot())
	if !reflect.DeepEqual(gotDataset, wantDataset) {
		t.Fatalf("dataset after restart:\n got %v\nwant %v", gotDataset, wantDataset)
	}
	_, _, gotUserStats := srv2.fullSnapshot()
	if !reflect.DeepEqual(gotUserStats, wantUserStats) {
		t.Fatalf("user accounting after restart:\n got %v\nwant %v", gotUserStats, wantUserStats)
	}

	// Keyed retry straddling the restart: the same (user, key, body)
	// must replay the original outcome, not commit the chunk again.
	replayed := postChunk(t, hs2.URL, keyed("alice", "chunk-2026-07-28", 10))
	if replayed.Status != http.StatusOK {
		t.Fatalf("keyed retry after restart: %+v", replayed)
	}
	if !replayed.Replay {
		t.Fatal("keyed retry after restart was not served as a replay")
	}
	if !reflect.DeepEqual(replayed.Result, orig.Result) {
		t.Fatalf("replayed %+v, want original %+v", replayed.Result, orig.Result)
	}
	if got := srv2.Stats(); !reflect.DeepEqual(got, wantStats) {
		t.Fatalf("keyed retry double-committed across restart:\n got %+v\nwant %+v", got, wantStats)
	}

	// Key reuse with a different body is still a client error after the
	// restart (the payload fingerprint survived too).
	if res := postChunk(t, hs2.URL, keyed("alice", "chunk-2026-07-28", 3)); res.Status != http.StatusUnprocessableEntity {
		t.Fatalf("key reuse with new body after restart: %+v", res)
	}

	// The raw upload history survived: a retrain on the restarted server
	// trains on what was uploaded before the restart.
	history := srv2.historySnapshot()
	users := make([]string, 0, len(history))
	total := 0
	for _, h := range history {
		users = append(users, h.User)
		total += h.Len()
	}
	sort.Strings(users)
	if want := []string{"alice", "bob", "drift-mallory"}; !reflect.DeepEqual(users, want) {
		t.Fatalf("history users after restart = %v, want %v", users, want)
	}
	if total != 22 {
		t.Fatalf("history records after restart = %d, want 22", total)
	}
}

// TestLoadStateLegacySnapshot keeps the old snapshot format readable:
// bare published traces (no owners, no history, no idempotency).
func TestLoadStateLegacySnapshot(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "legacy.json")
	legacy := map[string]any{
		"published": []trace.Trace{trace.New("anon-1", sampleRecords(4))},
		"users": map[string]*UserStats{
			"alice": {Uploads: 1, RecordsIn: 4, RecordsPublished: 4, Pieces: 1},
		},
		"stats":  ServerStats{Uploads: 1, Users: 1, RecordsIn: 4, RecordsPublished: 4, PublishedTraces: 1},
		"pseudo": 7,
	}
	data, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(statePath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := New(&markedProtector{mark: "gen0"},
		WithRetrainer(RetrainerFunc(func([]trace.Trace) (Protector, Auditor, error) {
			return nil, ownerAuditor{prefix: ""}, nil // condemns every known owner
		}), 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.LoadState(statePath); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Uploads != 1 || st.PublishedTraces != 1 || st.Users != 1 {
		t.Fatalf("legacy stats = %+v", st)
	}
	// Legacy fragments have no owner, so a re-audit must leave them
	// alone rather than judging them against the wrong identity.
	report, err := srv.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if report.Audited != 0 || report.Quarantined != 0 {
		t.Fatalf("legacy fragments audited: %+v", report)
	}
	if got := srv.Stats().PublishedTraces; got != 1 {
		t.Fatalf("legacy fragment count after audit = %d", got)
	}
}
