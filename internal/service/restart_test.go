package service

import (
	"net/http"
	"reflect"
	"sort"
	"testing"

	"mood/internal/store"
	"mood/internal/trace"
)

// TestRestartRecoveryEndToEnd is the full restart drill: upload (sync,
// keyed, async), quarantine via a retrain pass, close the server (its
// final checkpoint compacts the log), recover a fresh server from the
// same WAL directory, and verify the published dataset, the user
// accounting, the global stats and keyed-retry replay all survived the
// restart bit for bit.
func TestRestartRecoveryEndToEnd(t *testing.T) {
	disk := store.NewMemFS()
	rt := RetrainerFunc(func(history []trace.Trace) (Protector, Auditor, error) {
		return nil, ownerAuditor{prefix: "drift-"}, nil
	})
	newServer := func() (*Server, string) {
		srv, hs := newWALServer(t, disk, &markedProtector{mark: "gen0"}, WithRetrainer(rt, 0))
		return srv, hs.URL
	}

	srv1, url1 := newServer()
	orig := postChunk(t, url1, keyed("alice", "chunk-2026-07-28", 10))
	for _, c := range []BatchChunk{keyed("bob", "", 7), keyed("drift-mallory", "", 5)} {
		if res := postChunk(t, url1, c); res.Status != http.StatusOK {
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

	wantStats := srv1.Stats()
	wantUsers := serverUsers(srv1)
	wantDataset := trace.NewDataset("published", srv1.publishedSnapshot())
	_, _, wantUserStats := srv1.fullSnapshot()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, url2 := newServer()

	if got := srv2.Stats(); !reflect.DeepEqual(got, wantStats) {
		t.Fatalf("stats after restart:\n got %+v\nwant %+v", got, wantStats)
	}
	if got := serverUsers(srv2); !reflect.DeepEqual(got, wantUsers) {
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
	replayed := postChunk(t, url2, keyed("alice", "chunk-2026-07-28", 10))
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
	if res := postChunk(t, url2, keyed("alice", "chunk-2026-07-28", 3)); res.Status != http.StatusUnprocessableEntity {
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
