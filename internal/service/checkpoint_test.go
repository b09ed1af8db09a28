package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mood/internal/clock"
	"mood/internal/store"
	"mood/internal/trace"
)

// dumpDir reads every file of a directory on fsys.
func dumpDir(t *testing.T, fsys store.FS, dir string) map[string]string {
	t.Helper()
	names, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(names))
	for _, name := range names {
		data, err := fsys.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(data)
	}
	return out
}

// overwrite replaces a file's content on fsys.
func overwrite(t *testing.T, fsys store.FS, name string, data []byte) {
	t.Helper()
	f, err := fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// snapshotFile names the one snapshot in a WAL directory.
func snapshotFile(t *testing.T, fsys store.FS, dir string) string {
	t.Helper()
	var found string
	for name := range dumpDir(t, fsys, dir) {
		if strings.HasPrefix(name, "snapshot-") {
			if found != "" {
				t.Fatalf("two snapshots in %s: %s and %s", dir, found, name)
			}
			found = name
		}
	}
	if found == "" {
		t.Fatalf("no snapshot in %s", dir)
	}
	return filepath.Join(dir, found)
}

// snapshotAndSuffix boots a WAL server on fsys and leaves it with a
// snapshot covering two acknowledged keyed uploads and a log suffix with
// two more.
func snapshotAndSuffix(t *testing.T, fsys store.FS) *Server {
	t.Helper()
	srv, hs := newWALServer(t, fsys, &fakeProtector{})
	for i := 0; i < 4; i++ {
		if i == 2 {
			if err := srv.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if r := postChunk(t, hs.URL, keyed("alice", fmt.Sprintf("chunk-%d", i), 3+i)); r.Status != http.StatusOK {
			t.Fatalf("upload %d: %d", i, r.Status)
		}
	}
	return srv
}

// assertReplays requires that the server holds exactly the state
// snapshotAndSuffix acknowledged: its stats, and every key answered from
// the dedupe window without running the protector.
func assertReplays(t *testing.T, when string, fsys store.FS, want ServerStats) *Server {
	t.Helper()
	fp := &fakeProtector{}
	srv, hs := newWALServer(t, fsys, fp)
	if got := srv.Stats(); got != want {
		t.Fatalf("%s: stats %+v, want %+v", when, got, want)
	}
	for i := 0; i < 4; i++ {
		r := postChunk(t, hs.URL, keyed("alice", fmt.Sprintf("chunk-%d", i), 3+i))
		if r.Status != http.StatusOK || !r.Replay {
			t.Fatalf("%s: retry %d: %+v", when, i, r)
		}
	}
	if fp.calls != 0 {
		t.Fatalf("%s: %d acknowledged uploads re-executed", when, fp.calls)
	}
	assertUniqueFragSeqs(t, srv, when)
	return srv
}

// crashedWAL leaves on a fresh disk what a killed server would.
func crashedWAL(t *testing.T) (*store.MemFS, ServerStats) {
	t.Helper()
	disk := store.NewMemFS()
	ffs := store.NewFaultFS(disk)
	want := snapshotAndSuffix(t, ffs).Stats()
	ffs.Kill()
	return disk, want
}

// TestFailedRecoverLeavesStoreUntouched: a server whose Recover could
// not read its snapshot — torn, a flipped bit, written by a newer
// release, not a snapshot at all, or a valid snapshot in the JSON form
// that releases before the binary codec wrote — refuses to checkpoint,
// and its Close (which cmd/moodserver defers before it calls Recover)
// writes nothing: every file of the store is byte for byte what Recover
// found.
func TestFailedRecoverLeavesStoreUntouched(t *testing.T) {
	damage := map[string]func(snap []byte) []byte{
		"truncated":     func(snap []byte) []byte { return snap[:len(snap)-7] },
		"flipped bit":   func(snap []byte) []byte { snap[len(snap)/2] ^= 0x10; return snap },
		"newer version": func(snap []byte) []byte { snap[4] = snapshotVersion + 1; return snap },
		"not a snapshot": func([]byte) []byte {
			return []byte("\x00\x01 what an older binary makes of a format it has never seen")
		},
		"torn legacy JSON": func([]byte) []byte { return []byte(`{"users":{"alice":{"uploads":1`) },
		"valid legacy JSON": func(snap []byte) []byte {
			legacy, err := SnapshotJSON(snap)
			if err != nil {
				t.Fatal(err)
			}
			return legacy
		},
	}
	for name, damageFn := range damage {
		t.Run("wal/"+name, func(t *testing.T) {
			disk, _ := crashedWAL(t)
			file := snapshotFile(t, disk, "wal")
			snap, err := disk.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			overwrite(t, disk, file, damageFn(snap))
			before := dumpDir(t, disk, "wal")

			w, err := store.NewWAL(store.WALOptions{Dir: "wal", FS: disk, Fsync: store.FsyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(&fakeProtector{}, WithStore(w), WithCheckpointInterval(-1))
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Recover(); err == nil || !strings.Contains(err.Error(), "decoding state") {
				t.Fatalf("Recover over a %s snapshot: %v", name, err)
			}
			if err := srv.Checkpoint(); err == nil {
				t.Fatal("Checkpoint succeeded on a server whose recovery failed")
			}
			if err := srv.Recover(); err == nil {
				t.Fatal("a second Recover was accepted")
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if after := dumpDir(t, disk, "wal"); !reflect.DeepEqual(after, before) {
				t.Fatalf("the store changed under a failed recovery:\n before %q\n after  %q", before, after)
			}
		})
	}
}

// TestCrashInsideCheckpoint crashes the filesystem at EVERY mutating
// operation of a checkpoint — the fence, the torn temp file, the rename,
// the directory sync, each pruned segment, the old snapshot — whole and
// torn, with acknowledged uploads on both sides of the previous
// snapshot. Whatever the crash left boots to exactly the acknowledged
// state, replays every key, and checkpoints forward to a snapshot that
// boots to it again.
func TestCrashInsideCheckpoint(t *testing.T) {
	run := func(t *testing.T, failAfter, partial int) (ops int) {
		disk := store.NewMemFS()
		ffs := store.NewFaultFS(disk)
		srvA := snapshotAndSuffix(t, ffs)
		want := srvA.Stats()
		before := ffs.Ops()
		if failAfter > 0 {
			ffs.FailAt(before+failAfter, partial)
		}
		err := srvA.Checkpoint()
		ops = ffs.Ops() - before
		if failAfter == 0 && err != nil {
			t.Fatal(err)
		}
		ffs.Kill()

		// The first boot checkpoints forward; the second boots from that
		// snapshot alone.
		for boot := 0; boot < 2; boot++ {
			when := fmt.Sprintf("crash at op %d of the checkpoint (partial %d), boot %d", failAfter, partial, boot)
			srvB := assertReplays(t, when, disk, want)
			if err := srvB.Checkpoint(); err != nil {
				t.Fatalf("%s: checkpointing forward: %v", when, err)
			}
			if err := srvB.Close(); err != nil {
				t.Fatalf("%s: Close: %v", when, err)
			}
		}
		return ops
	}

	ops := run(t, 0, -1)
	if ops < 6 { // sync, create, write, sync, rename, dirsync, removes
		t.Fatalf("a checkpoint made only %d mutating operations", ops)
	}
	for failAfter := 1; failAfter <= ops; failAfter++ {
		for _, partial := range []int{-1, 3} {
			run(t, failAfter, partial)
		}
	}
}

// TestStateFileMigratesIntoWALDir is the documented migration from the
// snapshot-only -state file: the binary snapshot such a file holds,
// copied into an empty WAL directory as snapshot-00000000.json, boots to
// the stats, the dataset pages, the job handles and the keyed replays of
// the server that wrote it — and checkpoints forward from there.
func TestStateFileMigratesIntoWALDir(t *testing.T) {
	src, hs := newTestServer(t)
	c := NewClient(hs.URL)
	for i, user := range []string{"alice", "bob", "carol"} {
		if r := postChunk(t, hs.URL, keyed(user, fmt.Sprintf("chunk-%d", i), 3+i)); r.Status != http.StatusOK {
			t.Fatalf("upload %s: %+v", user, r)
		}
	}
	job := uploadAsync(t, c, trace.New("dave", sampleRecords(6)))
	if _, err := c.WaitJob(job.ID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	state := src.captureState()
	disk := store.NewMemFS()
	overwrite(t, disk, "wal/snapshot-00000000.json", encodeSnapshot(&state))

	paths := []string{"/v2/users/alice", "/v2/jobs", "/v2/jobs/" + job.ID, "/v2/dataset", "/v2/dataset?limit=2"}
	for boot := 0; boot < 2; boot++ {
		fp := &fakeProtector{}
		srv, hsB := newWALServer(t, disk, fp)
		if got, want := srv.Stats(), src.Stats(); got != want {
			t.Fatalf("boot %d: stats %+v, want %+v", boot, got, want)
		}
		for _, path := range paths {
			if got, want := getBody(t, hsB.URL+path), getBody(t, hs.URL+path); got != want {
				t.Fatalf("boot %d: GET %s:\n got %s\nwant %s", boot, path, got, want)
			}
		}
		for i, user := range []string{"alice", "bob", "carol"} {
			if r := postChunk(t, hsB.URL, keyed(user, fmt.Sprintf("chunk-%d", i), 3+i)); r.Status != http.StatusOK || !r.Replay {
				t.Fatalf("boot %d: keyed retry %s: %+v", boot, user, r)
			}
		}
		if fp.calls != 0 {
			t.Fatalf("boot %d: %d migrated uploads re-executed", boot, fp.calls)
		}
		// The first boot's Close checkpoints forward; the second boots
		// from the snapshot it wrote.
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointConcurrentWithCommits is the proof that capturing slice
// headers under the barrier and encoding outside it is sound: under
// -race, checkpoints run back to back against keyed batch uploads (whose
// commits append to histories and fragment lists the encoder is reading,
// and trim histories at their cap) and retrain passes that quarantine
// fragments (compacting fragment lists in place). A crash after the last
// acknowledgement then boots — from whichever snapshot the loop wrote
// last plus the log after it — to the same stats and the same dataset.
func TestCheckpointConcurrentWithCommits(t *testing.T) {
	const (
		uploaders = 4
		batches   = 12
		perBatch  = 8
	)
	rt := RetrainerFunc(func([]trace.Trace) (Protector, Auditor, error) {
		return nil, ownerAuditor{prefix: "drift-"}, nil
	})
	disk := store.NewMemFS()
	ffs := store.NewFaultFS(disk)
	// A history cap of 40 records makes every few commits trim by copy.
	srvA, hsA := newWALServer(t, ffs, &markedProtector{mark: "gen0"}, WithRetrainer(rt, 0), WithHistoryCap(40))

	var uploads, background sync.WaitGroup
	stop := make(chan struct{})
	background.Add(2)
	go func() {
		defer background.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := srvA.Checkpoint(); err != nil {
					t.Errorf("Checkpoint: %v", err)
					return
				}
			}
		}
	}()
	go func() {
		defer background.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := srvA.Retrain(); err != nil {
					t.Errorf("Retrain: %v", err)
					return
				}
			}
		}
	}()
	for u := 0; u < uploaders; u++ {
		uploads.Add(1)
		go func(u int) {
			defer uploads.Done()
			user := fmt.Sprintf("user-%d", u)
			if u%2 == 1 {
				user = "drift-" + user
			}
			c := NewClient(hsA.URL)
			for b := 0; b < batches; b++ {
				chunks := make([]BatchChunk, perBatch)
				for i := range chunks {
					chunks[i] = BatchChunk{User: user, Records: sampleRecords(3 + i), Key: fmt.Sprintf("b%d-c%d", b, i)}
				}
				results, err := c.UploadBatch(chunks)
				if err != nil {
					t.Errorf("%s batch %d: %v", user, b, err)
					return
				}
				for _, r := range results {
					if r.Status != http.StatusOK {
						t.Errorf("%s batch %d chunk %d: status %d %s", user, b, r.Index, r.Status, r.Error)
					}
				}
			}
		}(u)
	}
	uploads.Wait()
	close(stop)
	background.Wait()
	if t.Failed() {
		return
	}

	want := srvA.Stats()
	if want.Uploads != uploaders*batches*perBatch || want.QuarantinedTraces == 0 {
		t.Fatalf("the workload did not run as scripted: %+v", want)
	}
	wantDataset := getBody(t, hsA.URL+"/v2/dataset?limit=1000")
	if p := persistenceOf(t, hsA.URL); p.Checkpoints < 2 {
		t.Fatalf("only %d checkpoints ran beside the uploads", p.Checkpoints)
	}
	ffs.Kill()

	// The reboot's restore pass keeps the engine and skips the audit: a
	// drift fragment that committed on gen0 after srvA's last pass is
	// the fake engine's, not the checkpoint's, and must not move here.
	keep := RetrainerFunc(func([]trace.Trace) (Protector, Auditor, error) { return nil, nil, nil })
	srvB, hsB := newWALServer(t, disk, &markedProtector{mark: "gen1"}, WithRetrainer(keep, 0), WithHistoryCap(40))
	if got := srvB.Stats(); got != want {
		t.Fatalf("recovered stats %+v, want %+v", got, want)
	}
	if got := getBody(t, hsB.URL+"/v2/dataset?limit=1000"); got != wantDataset {
		t.Fatal("the recovered dataset differs from the one served before the crash")
	}
	for u := 0; u < uploaders; u++ {
		user := fmt.Sprintf("user-%d", u)
		if u%2 == 1 {
			user = "drift-" + user
		}
		if got, want := len(historyOf(srvB, user).join()), len(historyOf(srvA, user).join()); got != want || got != 40 {
			t.Fatalf("%s: recovered %d history records, had %d", user, got, want)
		}
	}
	assertUniqueFragSeqs(t, srvB, "after concurrent checkpoints")
}

// advancingStore is a store whose Compact takes 7 ms of the injected
// clock.
type advancingStore struct {
	flakyStore
	clk  *clock.Manual
	size int
}

func (s *advancingStore) Compact(snapshot []byte, _ store.Pos) error {
	s.clk.Advance(7 * time.Millisecond)
	s.size = len(snapshot)
	return nil
}

// TestStatsLastCheckpoint: /v2/stats reports how long the last
// successful checkpoint took on the injected clock and what it wrote,
// and says nothing of either before one has succeeded.
func TestStatsLastCheckpoint(t *testing.T) {
	clk := clock.NewManual(time.Unix(1_700_000_000, 0))
	st := &advancingStore{clk: clk}
	srv, err := New(&fakeProtector{}, WithStore(st), WithClock(clk), WithCheckpointInterval(-1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	if err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	if body := getBody(t, hs.URL+"/v2/stats"); strings.Contains(body, "last_checkpoint") {
		t.Fatalf("stats before any checkpoint: %s", body)
	}
	if r := postChunk(t, hs.URL, keyed("alice", "chunk-0", 5)); r.Status != http.StatusOK {
		t.Fatalf("upload: %d", r.Status)
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p := persistenceOf(t, hs.URL)
	if p.LastCheckpointMillis != 7 || p.LastCheckpointBytes != st.size || st.size == 0 {
		t.Fatalf("after a 7 ms checkpoint of %d bytes: %+v", st.size, p)
	}
}
