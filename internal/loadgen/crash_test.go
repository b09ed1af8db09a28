package loadgen

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mood/internal/clock"
	"mood/internal/service"
	"mood/internal/store"
	"mood/internal/trace"
)

// TestCrashUnderLoadKeepsInvariants is the hard-kill cousin of the
// restart drill: mid-round, the live server's filesystem is severed
// mid-write (no drain, no snapshot — the in-process shape of kill -9)
// and a replacement reboots from whatever the WAL holds. Under
// fsync=always every acknowledged upload is on the log before the ack,
// so the driver's keyed retries plus replay must reconcile to exactly
// the same invariants as an uninterrupted run — exactly-once delivery,
// record conservation, per-user aggregation, dataset shape.
func TestCrashUnderLoadKeepsInvariants(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	host, err := NewWALHost(func(st store.Store) (*service.Server, error) {
		return service.New(EchoProtector{}, service.WithStore(st))
	}, walDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { host.Close() })
	hs := httptest.NewServer(host)
	t.Cleanup(hs.Close)

	crashed := false
	cfg, err := Scenario("crash", 33, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	first := host.Current()
	cfg.Restart = func() error {
		if err := host.Crash(); err != nil {
			return err
		}
		crashed = true
		return nil
	}

	rep, err := runScenario(cfg, hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !crashed {
		t.Fatal("crash callback never ran")
	}
	if host.Current() == first {
		t.Fatal("crash did not replace the server")
	}
	if !rep.OK {
		t.Fatalf("invariants broken across the crash: %+v", rep.Violations)
	}
	if rep.Requests.Uploads == 0 || rep.Requests.Replays == 0 {
		t.Fatalf("degenerate run: %+v", rep.Requests)
	}

	// Recovery fidelity: one more cold boot from the same log must
	// reconstruct the final server's accounting exactly. Close the host
	// first (idempotent; flushes the final checkpoint and releases the
	// log) so the reborn server owns the directory alone.
	final := host.Current()
	wantStats, wantUsers := final.Stats(), final.Stats().Users
	if err := host.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := store.NewWAL(store.WALOptions{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	reborn, err := service.New(EchoProtector{}, service.WithStore(w))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reborn.Close() })
	if err := reborn.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := reborn.Stats(); got != wantStats {
		t.Fatalf("stats changed across replay:\n got %+v\nwant %+v", got, wantStats)
	}
	if got := reborn.Stats().Users; got != wantUsers {
		t.Fatalf("users changed across replay: %d vs %d", got, wantUsers)
	}
}

// TestCrashInsideGroupFrameKeepsInvariants drives the crash drill
// through multi-chunk commit groups: concurrent uploaders stream keyed
// NDJSON batches — whose chunks share WAL frames — while the filesystem
// is killed at every mutating operation of the round, whole and with a
// torn write. After the reboot the uploaders re-send everything: every
// chunk acknowledged before the crash must replay, every other chunk
// must execute exactly once, and the books must balance.
func TestCrashInsideGroupFrameKeepsInvariants(t *testing.T) {
	const uploaders, batchesEach, per, recs = 2, 2, 8, 4
	total := uploaders * batchesEach * per
	batch := func(u, b int) []service.BatchChunk {
		chunks := make([]service.BatchChunk, per)
		for c := range chunks {
			rs := make([]trace.Record, recs)
			for r := range rs {
				rs[r] = trace.Record{Lat: 45.7, Lon: 4.8 + float64(r)*1e-4, TS: int64((b*per+c)*3600 + r*60)}
			}
			chunks[c] = service.BatchChunk{User: fmt.Sprintf("u%d", u), Records: rs, Key: fmt.Sprintf("b%dc%d", b, c)}
		}
		return chunks
	}
	// round uploads every batch once, the uploaders side by side, and
	// reports which chunks were acknowledged and which replayed.
	type outcome struct {
		acked, replayed [uploaders][batchesEach][per]bool
	}
	round := func(url string, mustSucceed bool) (out outcome) {
		var wg sync.WaitGroup
		for u := 0; u < uploaders; u++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := service.NewClient(url)
				for b := 0; b < batchesEach; b++ {
					results, err := c.UploadBatch(batch(u, b))
					if err != nil {
						if mustSucceed {
							t.Errorf("uploader %d batch %d: %v", u, b, err)
						}
						continue
					}
					for i, res := range results {
						switch {
						case res.Status == http.StatusOK:
							out.acked[u][b][i] = true
							out.replayed[u][b][i] = res.Replay
						case res.Status == http.StatusServiceUnavailable && !mustSucceed:
						default:
							t.Errorf("uploader %d batch %d chunk %d: %+v", u, b, i, res)
						}
					}
				}
			}()
		}
		wg.Wait()
		return out
	}
	// On a clock that stands still no chunk ever outweighs a sync, so the
	// windows fill: what shares a frame depends on the batches alone.
	mk := func(st store.Store) (*service.Server, error) {
		return service.New(EchoProtector{}, service.WithStore(st),
			service.WithClock(clock.NewManual(time.Unix(1_700_000_000, 0))))
	}

	// Clean run: how many mutating operations a round makes at most, and
	// proof that its chunks shared frames.
	probe, err := NewWALHost(mk, "wal", store.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	hsProbe := httptest.NewServer(probe)
	round(hsProbe.URL, true)
	hsProbe.Close()
	totalOps := probe.curFS.Ops()
	if st := probe.Current().Stats(); st.Uploads != total {
		t.Fatalf("clean run committed %d of %d chunks", st.Uploads, total)
	}
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	if totalOps >= 2*total {
		t.Fatalf("clean run made %d mutating operations for %d chunks: no chunk shared a frame", totalOps, total)
	}

	for failAt := 1; failAt <= totalOps; failAt++ {
		for _, partial := range []int{-1, 40} {
			host, err := NewWALHost(mk, "wal", store.NewMemFS())
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(host)
			host.curFS.FailAt(failAt, partial)
			before := round(hs.URL, false)
			if err := host.Crash(); err != nil {
				t.Fatal(err)
			}
			after := round(hs.URL, true)
			for u := range before.acked {
				for b := range before.acked[u] {
					for i, acked := range before.acked[u][b] {
						if acked && !after.replayed[u][b][i] {
							t.Errorf("failAt=%d partial=%d: chunk %d/%d/%d was acknowledged and re-executed after the crash",
								failAt, partial, u, b, i)
						}
					}
				}
			}
			st := host.Current().Stats()
			if st.Uploads != total || st.RecordsIn != total*recs || st.RecordsPublished != total*recs || st.Users != uploaders {
				t.Errorf("failAt=%d partial=%d: books do not balance after crash and retry: %+v", failAt, partial, st)
			}
			hs.Close()
			if err := host.Close(); err != nil {
				t.Errorf("failAt=%d partial=%d: closing the rebooted host: %v", failAt, partial, err)
			}
			if t.Failed() {
				return
			}
		}
	}
}
