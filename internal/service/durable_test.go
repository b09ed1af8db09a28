package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mood/internal/clock"
	"mood/internal/store"
	"mood/internal/trace"
)

// newWALServer boots a Server over a WAL in fsys (FsyncAlways, so every
// ack is durable), recovers it and serves it over httptest. Close
// errors are ignored on cleanup: crash tests kill the FS under the
// server first, which makes the shutdown checkpoint fail by design.
func newWALServer(t *testing.T, fsys store.FS, fp Protector, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	w, err := store.NewWAL(store.WALOptions{Dir: "wal", FS: fsys, Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(fp, append([]Option{WithStore(w), WithCheckpointInterval(-1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck // see doc comment
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// TestWALServerCrashRecovery: a server killed without any shutdown path
// (no drain, no snapshot) rebuilds exactly its acknowledged state from
// the WAL — stats, dataset, idempotency window and terminal jobs.
func TestWALServerCrashRecovery(t *testing.T) {
	disk := store.NewMemFS()
	ffs := store.NewFaultFS(disk)
	srvA, hsA := newWALServer(t, ffs, &fakeProtector{})
	c := NewClient(hsA.URL)

	mustUpload(t, c, trace.New("alice", sampleRecords(10)))
	if r := postChunk(t, hsA.URL, keyed("bob", "chunk-1", 4)); r.Status != http.StatusOK {
		t.Fatalf("keyed upload: %d", r.Status)
	}
	job := uploadAsync(t, c, trace.New("carol", sampleRecords(6)))
	if _, err := c.WaitJob(job.ID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	want := srvA.Stats()

	// Crash: every FS operation fails from here on; nothing that was not
	// already synced can reach the log.
	ffs.Kill()

	fpB := &fakeProtector{}
	srvB, hsB := newWALServer(t, disk, fpB)
	if got := srvB.Stats(); got != want {
		t.Fatalf("recovered stats = %+v, want %+v", got, want)
	}
	cB := NewClient(hsB.URL)
	d, err := cB.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRecords() != 20 {
		t.Fatalf("recovered dataset has %d records, want 20", d.NumRecords())
	}
	for _, tr := range d.Traces {
		if tr.User == "alice" || tr.User == "bob" || tr.User == "carol" {
			t.Fatalf("recovered dataset leaks raw user ID %q", tr.User)
		}
	}

	// The keyed chunk's retry must replay across the crash, not commit
	// twice: the idempotency completion rode in the commit's WAL frame.
	r := postChunk(t, hsB.URL, keyed("bob", "chunk-1", 4))
	if r.Status != http.StatusOK || !r.Replay {
		t.Fatalf("keyed retry after crash: %+v", r)
	}
	if fpB.calls != 0 {
		t.Fatalf("keyed retry re-executed the protector %d times", fpB.calls)
	}
	if got := srvB.Stats(); got != want {
		t.Fatalf("stats after replayed retry = %+v, want %+v", got, want)
	}

	// The async job's terminal status also survived.
	j, err := cB.Job(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != JobDone || j.Result == nil || j.Result.Accepted != 6 {
		t.Fatalf("recovered job = %+v", j)
	}

	// Live commits, log replay and snapshot restore fold through the same
	// state transitions, so one workload comes back the same whichever way
	// it is recovered: from the log alone, from a checkpoint alone, or from
	// a checkpoint plus the log written after it.
	for _, rc := range []struct {
		name       string
		checkpoint bool // checkpoint between the workload's halves
		crash      bool // kill the disk; otherwise Close (final checkpoint)
	}{
		{"log only", false, true},
		{"checkpoint only", false, false},
		{"checkpoint plus log suffix", true, true},
	} {
		t.Run(rc.name, func(t *testing.T) { checkRecoveryPath(t, rc.checkpoint, rc.crash) })
	}
}

// recoveryState is what a client can read of a server's state: the
// global counters, every participant's accounting, the job list, the
// dataset page bytes (not the ETag: the quarantine generation is not
// persisted) and the retrainer's history.
type recoveryState struct {
	Stats   ServerStats
	Users   map[string]UserStats
	Jobs    JobList
	Dataset string
	History []trace.Trace
}

func observeState(t *testing.T, srv *Server, hs *httptest.Server) recoveryState {
	t.Helper()
	c := NewClient(hs.URL)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	jobs := listJobs(t, c, "")
	out := recoveryState{Stats: st, Users: map[string]UserStats{}, Jobs: jobs,
		Dataset: getBody(t, hs.URL+"/v2/dataset?limit=1000"), History: srv.historySnapshot()}
	for _, u := range serverUsers(srv) {
		if out.Users[u], err = c.UserStats(u); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkRecoveryPath runs keyed, async and failing-async uploads and a
// retrain that quarantines a fragment, recovers the server from its WAL
// directory and requires the recovered server to answer exactly as the
// live one did, keyed retries included. One worker makes the workload
// sequential, so the failed job's best-effort record is appended before
// the next upload completes.
func checkRecoveryPath(t *testing.T, checkpoint, crash bool) {
	// The retrained engine refuses what its auditor re-identifies, as a
	// retrained pipeline does, so the reboot's restore pass finds
	// nothing the live server had not already pulled.
	opts := func(fp *fakeProtector) []Option {
		a := ownerAuditor{prefix: "drift-"}
		rt := RetrainerFunc(func([]trace.Trace) (Protector, Auditor, error) {
			return auditedProtector{fp, a}, a, nil
		})
		return []Option{WithWorkers(1), WithRetrainer(rt, 0)}
	}
	disk := store.NewMemFS()
	ffs := store.NewFaultFS(disk)
	fpA := &fakeProtector{}
	srvA, hsA := newWALServer(t, ffs, fpA, opts(fpA)...)
	c := NewClient(hsA.URL)
	waitAsync := func(user string, n int, want string) {
		j, err := c.WaitJob(uploadAsync(t, c, trace.New(user, sampleRecords(n))).ID, 5*time.Second)
		if err != nil || j.State != want {
			t.Fatalf("async %s: %+v, %v; want %s", user, j, err, want)
		}
	}
	keys := []BatchChunk{keyed("bob", "chunk-1", 4), keyed("bob", "chunk-2", 2)}
	results := make([]BatchResult, len(keys))

	mustUpload(t, c, trace.New("alice", sampleRecords(10)))
	results[0] = postChunk(t, hsA.URL, keys[0])
	waitAsync("carol", 6, JobDone)
	waitAsync("boom-dave", 3, JobFailed)
	mustUpload(t, c, trace.New("drift-erin", sampleRecords(5)))
	if checkpoint {
		if err := srvA.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if rep, err := c.Retrain(); err != nil || rep.Quarantined != 1 {
		t.Fatalf("retrain: %+v, %v", rep, err)
	}
	results[1] = postChunk(t, hsA.URL, keys[1])
	waitAsync("frank", 3, JobDone)
	mustUpload(t, c, trace.New("reject-gus", sampleRecords(2)))
	mustUpload(t, c, trace.New("drift-erin", sampleRecords(3)))
	for i, r := range results {
		if r.Status != http.StatusOK || r.Replay {
			t.Fatalf("keyed upload %d: %+v", i, r)
		}
	}

	want := observeState(t, srvA, hsA)
	if crash {
		ffs.Kill()
	} else if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}
	fpB := &fakeProtector{}
	srvB, hsB := newWALServer(t, disk, fpB, opts(fpB)...)
	if got := observeState(t, srvB, hsB); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state differs from the live one:\n got %+v\nwant %+v", got, want)
	}
	for i, k := range keys {
		r := postChunk(t, hsB.URL, k)
		if !r.Replay || !reflect.DeepEqual(r.Result, results[i].Result) {
			t.Fatalf("keyed retry %d after recovery: %+v, want a replay of %+v", i, r, results[i])
		}
	}
	if fpB.calls != 0 {
		t.Fatalf("keyed retries re-executed the protector %d times", fpB.calls)
	}
	if got := observeState(t, srvB, hsB); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed retries changed the state:\n got %+v\nwant %+v", got, want)
	}
}

// TestFaultInjectionNoAckedLoss is the durability property test: crash
// the filesystem at EVERY mutating operation (clean failure and torn
// write), reboot from the log, and require that no acknowledged upload
// is lost and no keyed retry commits twice.
func TestFaultInjectionNoAckedLoss(t *testing.T) {
	const users = 5
	const recsPer = 4

	keys := make([]string, users)
	for i := range keys {
		keys[i] = "chunk-" + string(rune('a'+i))
	}
	upload := func(t *testing.T, hs *httptest.Server, i int) BatchResult {
		return postChunk(t, hs.URL, keyed("alice", keys[i], recsPer))
	}

	// Clean run: count the mutating FS operations a full workload makes,
	// so the fault sweep below can hit every single one.
	probe := store.NewFaultFS(store.NewMemFS())
	_, hs := newWALServer(t, probe, &fakeProtector{})
	for i := 0; i < users; i++ {
		if r := upload(t, hs, i); r.Status != http.StatusOK {
			t.Fatalf("clean run upload %d: %d", i, r.Status)
		}
	}
	totalOps := probe.Ops()
	if totalOps < users {
		t.Fatalf("suspiciously few mutating ops: %d", totalOps)
	}

	for failAt := 1; failAt <= totalOps; failAt++ {
		for _, partial := range []int{-1, 3} {
			disk := store.NewMemFS()
			ffs := store.NewFaultFS(disk)
			ffs.FailAt(failAt, partial)
			_, hsA := newWALServer(t, ffs, &fakeProtector{})

			acked := make([]bool, users)
			ackedCount := 0
			for i := 0; i < users; i++ {
				switch r := upload(t, hsA, i); r.Status {
				case http.StatusOK:
					acked[i] = true
					ackedCount++
				case http.StatusServiceUnavailable:
					// Storage refused the commit: nothing acked, nothing
					// applied; the retry below must re-execute it.
				default:
					t.Fatalf("failAt=%d partial=%d upload %d: unexpected status %d",
						failAt, partial, i, r.Status)
				}
			}
			ffs.Kill()

			fpB := &fakeProtector{}
			srvB, hsB := newWALServer(t, disk, fpB)
			for i := 0; i < users; i++ {
				r := postChunk(t, hsB.URL, keyed("alice", keys[i], recsPer))
				if r.Status != http.StatusOK {
					t.Fatalf("failAt=%d partial=%d: retry %d got %d",
						failAt, partial, i, r.Status)
				}
				if acked[i] && !r.Replay {
					t.Fatalf("failAt=%d partial=%d: acked upload %d lost (retry re-executed)",
						failAt, partial, i)
				}
			}
			// Every acked key replayed (checked above); an unacked key may
			// ALSO replay — a crash after the frame reached the disk but
			// before the fsync returned leaves the commit durable even
			// though the client saw a 503 — so re-executions are at most,
			// not exactly, the unacked count. The conservation check below
			// catches any double commit either way.
			if fpB.calls > users-ackedCount {
				t.Fatalf("failAt=%d partial=%d: %d re-executions for %d unacked keys",
					failAt, partial, fpB.calls, users-ackedCount)
			}
			st := srvB.Stats()
			if st.Uploads != users || st.RecordsIn != users*recsPer ||
				st.RecordsPublished != users*recsPer {
				t.Fatalf("failAt=%d partial=%d: conservation broken: %+v",
					failAt, partial, st)
			}
			assertUniqueFragSeqs(t, srvB, fmt.Sprintf("failAt=%d partial=%d", failAt, partial))
		}
	}
}

// assertUniqueFragSeqs: fragment seq handles must stay unique (and
// non-zero) through replay.
func assertUniqueFragSeqs(t *testing.T, srv *Server, when string) {
	t.Helper()
	seen := make(map[int64]bool)
	for _, f := range allFrags(srv) {
		if f.Seq == 0 || seen[f.Seq] {
			t.Fatalf("%s: duplicate or zero frag seq %d", when, f.Seq)
		}
		seen[f.Seq] = true
	}
}

// allFrags copies every shard's published fragments, shard by shard.
func allFrags(srv *Server) []publishedFrag {
	var out []publishedFrag
	for i := range srv.shards {
		srv.shards[i].locked(func(st *shardState) { out = append(out, st.published...) })
	}
	return out
}

// TestWALQuarantineReplay: a quarantine logged by the re-audit pass is
// re-applied on recovery — the pulled fragment stays out of the dataset
// after a crash, with the accounting intact.
func TestWALQuarantineReplay(t *testing.T) {
	disk := store.NewMemFS()
	ffs := store.NewFaultFS(disk)
	srvA, hsA := newWALServer(t, ffs, &fakeProtector{})
	c := NewClient(hsA.URL)
	mustUpload(t, c, trace.New("alice", sampleRecords(8)))

	// Condemn the fragment the way auditFrags does: durable record plus
	// in-memory removal under the consistency barrier.
	seq := allFrags(srvA)[0].Seq
	srvA.appendBestEffort(recQuarantine, walQuarantine{Seqs: []int64{seq}})
	if got := srvA.quarantine(durable{}, []int64{seq}); got != 1 {
		t.Fatalf("quarantine = %d, want 1", got)
	}
	want := srvA.Stats()
	if want.QuarantinedTraces != 1 || want.RecordsQuarantined != 8 {
		t.Fatalf("quarantine accounting before crash: %+v", want)
	}
	ffs.Kill()

	srvB, hsB := newWALServer(t, disk, &fakeProtector{})
	if got := srvB.Stats(); got != want {
		t.Fatalf("recovered stats = %+v, want %+v", got, want)
	}
	d, err := NewClient(hsB.URL).Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRecords() != 0 {
		t.Fatalf("quarantined fragment resurfaced: %d records", d.NumRecords())
	}
}

// flakyStore fails its first failFirst compactions, then succeeds — the
// checkpoint loop must retry with backoff and surface the health.
type flakyStore struct {
	mu        sync.Mutex
	failFirst int
	fails     int
	compacts  int
}

func (f *flakyStore) Name() string                          { return "flaky" }
func (f *flakyStore) Append(...store.Record) error          { return nil }
func (f *flakyStore) Load() ([]byte, []store.Record, error) { return nil, nil, nil }
func (f *flakyStore) Mark() (store.Pos, error)              { return 0, nil }
func (f *flakyStore) Close() error                          { return nil }

func (f *flakyStore) Compact([]byte, store.Pos) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fails < f.failFirst {
		f.fails++
		return errors.New("disk full")
	}
	f.compacts++
	return nil
}

func (f *flakyStore) NeedsCompaction() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.compacts == 0
}

// TestCheckpointRetrySurfacesHealth drives the checkpoint loop on the
// virtual clock through two failures into a success, checking the
// backoff cadence and the health surfaced for /v2/stats at each step.
func TestCheckpointRetrySurfacesHealth(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	fst := &flakyStore{failFirst: 2}
	srv, err := New(&fakeProtector{},
		WithStore(fst), WithClock(clk), WithCheckpointInterval(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	if err := srv.Recover(); err != nil {
		t.Fatal(err)
	}

	clk.BlockUntil(1)        // the loop's ticker is registered
	clk.Advance(time.Minute) // tick: first checkpoint fails
	clk.BlockUntil(2)        // ...and the 1 s backoff timer is armed
	p := srv.statsPayload().Persistence
	if p == nil || p.CheckpointFailures != 1 || p.LastError == "" || p.LastSuccessAgeMillis != -1 {
		t.Fatalf("health after first failure: %+v", p)
	}
	clk.Advance(time.Second)     // retry: second failure
	clk.BlockUntil(2)            // 2 s backoff armed
	clk.Advance(2 * time.Second) // retry: success

	deadline := time.Now().Add(5 * time.Second)
	for srv.ckptTicks.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("checkpoint tick never settled")
		}
		time.Sleep(time.Millisecond)
	}
	p = srv.statsPayload().Persistence
	if p.Checkpoints != 1 || p.CheckpointFailures != 2 || p.LastError != "" {
		t.Fatalf("health after recovery: %+v", p)
	}
	if p.LastSuccessAgeMillis != 0 {
		t.Fatalf("fresh success age = %d, want 0", p.LastSuccessAgeMillis)
	}
	clk.Advance(5 * time.Second)
	if p = srv.statsPayload().Persistence; p.LastSuccessAgeMillis != 5000 {
		t.Fatalf("success age = %d, want 5000", p.LastSuccessAgeMillis)
	}
	if fst.compacts != 1 {
		t.Fatalf("compactions = %d, want 1", fst.compacts)
	}
}

// TestStatsPersistenceShape: /v2/stats gains a persistence section only
// when a store is configured; store-less servers keep the historical
// byte shape (also pinned by the golden test).
func TestStatsPersistenceShape(t *testing.T) {
	_, hs := newTestServer(t)
	body := getBody(t, hs.URL+"/v2/stats")
	if strings.Contains(body, "persistence") {
		t.Fatalf("store-less stats leaked a persistence section: %s", body)
	}

	_, hsWAL := newWALServer(t, store.NewMemFS(), &fakeProtector{})
	body = getBody(t, hsWAL.URL+"/v2/stats")
	if !strings.Contains(body, `"persistence"`) || !strings.Contains(body, `"store":"wal"`) {
		t.Fatalf("WAL stats missing persistence health: %s", body)
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
