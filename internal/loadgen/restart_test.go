package loadgen

import (
	"testing"

	"net/http/httptest"

	"mood/internal/service"
	"mood/internal/store"
)

// TestRestartUnderLoadKeepsInvariants is the restart drill from the
// PR 3 recovery test, but with concurrent traffic: a loadgen scenario
// runs while the server is drained (final checkpoint included), closed
// and recovered from its write-ahead log in the middle of a round (via
// the shared Host machinery cmd/moodload also uses). The driver's keyed
// retries must absorb the outage, and the final accounting must satisfy
// every invariant — exactly-once delivery, record conservation,
// per-user aggregation, dataset shape — as if the restart never
// happened.
func TestRestartUnderLoadKeepsInvariants(t *testing.T) {
	disk := store.NewMemFS()
	newServer := func(st store.Store) (*service.Server, error) {
		return service.New(EchoProtector{}, service.WithStore(st))
	}
	host, err := NewWALHost(newServer, "wal", disk)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { host.Close() })
	hs := httptest.NewServer(host)
	t.Cleanup(hs.Close)

	restarted := false
	cfg, err := Scenario("restart", 21, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	first := host.Current()
	cfg.Restart = func() error {
		if err := host.Restart(); err != nil {
			return err
		}
		restarted = true
		return nil
	}

	rep, err := runScenario(cfg, hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !restarted {
		t.Fatal("restart callback never ran")
	}
	if host.Current() == first {
		t.Fatal("restart did not replace the server")
	}
	if !rep.OK {
		t.Fatalf("invariants broken across the restart: %+v", rep.Violations)
	}
	if rep.Requests.Uploads == 0 || rep.Requests.Replays == 0 {
		t.Fatalf("degenerate run: %+v", rep.Requests)
	}

	// The PR 3 recovery invariants under concurrent traffic: the final
	// server state must round-trip through one more Close and Recover
	// unchanged.
	final := host.Current()
	wantStats, wantUsers := final.Stats(), final.Stats().Users
	if err := host.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := store.NewWAL(store.WALOptions{Dir: "wal", FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	reborn, err := newServer(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reborn.Close() })
	if err := reborn.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := reborn.Stats(); got != wantStats {
		t.Fatalf("stats changed across the final restart:\n got %+v\nwant %+v", got, wantStats)
	}
	if got := reborn.Stats().Users; got != wantUsers {
		t.Fatalf("users changed across the final restart: %d vs %d", got, wantUsers)
	}
}
