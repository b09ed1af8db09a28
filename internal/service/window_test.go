package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mood/internal/clock"
	"mood/internal/core"
	"mood/internal/store"
	"mood/internal/trace"
)

// Tests of the batch commit window (batch.go, commitGroup in
// durable.go): who shares a sync, who is never held back, what a refused
// or torn group leaves behind, and what cancelling a request or closing
// the server does to chunks parked between Protect and their sync.

// keyedBatch builds n keyed chunks of one user with distinct timestamps.
func keyedBatch(user, prefix string, n int) []BatchChunk {
	chunks := make([]BatchChunk, n)
	for i := range chunks {
		recs := sampleRecords(3)
		for r := range recs {
			recs[r].TS += int64(i) * 3600
		}
		chunks[i] = BatchChunk{User: user, Records: recs, Key: fmt.Sprintf("%s-%03d", prefix, i)}
	}
	return chunks
}

func batchBody(t *testing.T, chunks []BatchChunk) string {
	t.Helper()
	var b strings.Builder
	for _, c := range chunks {
		b.WriteString(batchLine(t, c))
	}
	return b.String()
}

// serveBatch runs one batch through the handler in memory: the whole
// body is readable at once, so the reader never waits for the wire
// before the stream ends and (on a clock that does not advance) what a
// window holds depends on nothing but the batch.
func serveBatch(t *testing.T, h http.Handler, body string) []BatchResult {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v2/traces", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch answered %d: %s", rec.Code, rec.Body.String())
	}
	var out []BatchResult
	dec := json.NewDecoder(rec.Body)
	for dec.More() {
		var res BatchResult
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("decoding result line %d: %v", len(out), err)
		}
		out = append(out, res)
	}
	return out
}

// streamBatch posts body over a real connection and delivers the result
// lines as they become readable. The exchange runs on its own goroutine:
// the response headers leave the server with the first result lines.
func streamBatch(t *testing.T, url string, body io.Reader) (<-chan BatchResult, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v2/traces", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", NDJSONContentType)
	lines := make(chan BatchResult, 1024)
	go func() {
		defer close(lines)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				t.Errorf("batch upload: %v", err)
			}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("batch answered %d", resp.StatusCode)
			return
		}
		dec := json.NewDecoder(resp.Body)
		for dec.More() {
			var res BatchResult
			if dec.Decode(&res) != nil {
				return
			}
			lines <- res
		}
	}()
	return lines, cancel
}

// gatedSyncFS holds every file Sync until the test lets it through.
type gatedSyncFS struct {
	store.FS
	gated   atomic.Bool
	entered chan struct{} // one token per gated Sync that began
	release chan struct{} // one token lets one gated Sync return
}

func newGatedSyncFS(inner store.FS) *gatedSyncFS {
	return &gatedSyncFS{FS: inner, entered: make(chan struct{}, 1024), release: make(chan struct{}, 1024)}
}

func (g *gatedSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (store.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gatedSyncFile{File: f, fs: g}, nil
}

type gatedSyncFile struct {
	store.File
	fs *gatedSyncFS
}

func (f *gatedSyncFile) Sync() error {
	if f.fs.gated.Load() {
		f.fs.entered <- struct{}{}
		<-f.fs.release
	}
	return f.File.Sync()
}

// persistenceOf reads the persistence section of /v2/stats.
func persistenceOf(t *testing.T, url string) PersistenceStats {
	t.Helper()
	var st StatsPayload
	if err := json.Unmarshal([]byte(getBody(t, url+"/v2/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Persistence == nil {
		t.Fatal("stats carry no persistence section")
	}
	return *st.Persistence
}

// TestBatchSharesSyncs: the chunks of a batch share WAL frames and
// syncs — under fsync=always too, because a group is one frame — and no
// result line is readable before the sync that covers its chunk is
// through. /v2/stats reports the grouping.
func TestBatchSharesSyncs(t *testing.T) {
	const n = 100
	gfs := newGatedSyncFS(store.NewFaultFS(store.NewMemFS()))
	// A clock that does not advance: no chunk ever outweighs a sync, so
	// the groups are decided by the window filling and the stream ending.
	srv, hs := newWALServer(t, gfs, &fakeProtector{}, WithClock(clock.NewManual(time.Unix(1_700_000_000, 0))))
	if r := postChunk(t, hs.URL, keyed("alice", "warm-up", 2)); r.Status != http.StatusOK {
		t.Fatalf("warm-up: %d", r.Status)
	}

	gfs.gated.Store(true)
	t.Cleanup(func() { // a failing run must not leave Close waiting at the gate
		gfs.gated.Store(false)
		for i := 0; i < cap(gfs.release); i++ {
			select {
			case gfs.release <- struct{}{}:
			default:
			}
		}
	})
	lines, done := streamBatch(t, hs.URL, strings.NewReader(batchBody(t, keyedBatch("alice", "k", n))))
	defer done()

	received, syncs := 0, 0
	drain := func() {
		for {
			select {
			case _, ok := <-lines:
				if !ok {
					return
				}
				received++
			default:
				return
			}
		}
	}
	for received < n {
		select {
		case <-gfs.entered:
			syncs++
			// A sync is pending. Whatever it covers must not have been
			// acknowledged: give a stray line time to show up, then hold the
			// lines received against the chunks whose append has returned.
			time.Sleep(20 * time.Millisecond)
			drain()
			if committed := int(srv.commits.Load()) - 1; received > committed {
				t.Fatalf("sync %d pending: %d result lines readable, only %d chunks durable", syncs, received, committed)
			}
			if syncs == 1 && received != 0 {
				t.Fatalf("%d result lines readable before the first sync was released", received)
			}
			gfs.release <- struct{}{}
		case _, ok := <-lines:
			if !ok {
				t.Fatalf("stream ended after %d of %d result lines", received, n)
			}
			received++
		case <-time.After(10 * time.Second):
			t.Fatalf("stuck at %d result lines, %d syncs", received, syncs)
		}
	}
	if syncs > 4 {
		t.Fatalf("a %d-chunk batch cost %d syncs, want at most 4", n, syncs)
	}
	gfs.gated.Store(false)

	if st := srv.Stats(); st.Uploads != n+1 {
		t.Fatalf("uploads = %d, want %d", st.Uploads, n+1)
	}
	ps := persistenceOf(t, hs.URL)
	if ps.Commits != n+1 || ps.CommitGroups != int64(syncs)+1 {
		t.Fatalf("persistence stats report %d commits in %d groups, want %d in %d", ps.Commits, ps.CommitGroups, n+1, syncs+1)
	}
}

// refusingStore refuses every Append while armed, without touching (and
// so without poisoning) the log underneath.
type refusingStore struct {
	store.Store
	refuse  atomic.Bool
	mu      sync.Mutex
	refused []int // records per refused Append
}

func (r *refusingStore) Append(recs ...store.Record) error {
	if r.refuse.Load() {
		r.mu.Lock()
		r.refused = append(r.refused, len(recs))
		r.mu.Unlock()
		return errors.New("disk on fire")
	}
	return r.Store.Append(recs...)
}

// TestBatchRefusedGroupAppend: a group whose append is refused applies
// nothing and answers every one of its chunks the retryable 503 with the
// key released, so the retry commits.
func TestBatchRefusedGroupAppend(t *testing.T) {
	const n = 20
	w, err := store.NewWAL(store.WALOptions{Dir: "wal", FS: store.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	rs := &refusingStore{Store: w}
	fp := &fakeProtector{}
	srv, err := New(fp, WithStore(rs), WithCheckpointInterval(-1),
		WithClock(clock.NewManual(time.Unix(1_700_000_000, 0))))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	body := batchBody(t, keyedBatch("alice", "k", n))
	before := srv.Stats()

	rs.refuse.Store(true)
	for i, res := range serveBatch(t, h, body) {
		if res.Status != http.StatusServiceUnavailable || res.Code != CodeStorage || res.RetryAfterSeconds == 0 {
			t.Fatalf("chunk %d of the refused group: %+v, want 503 %s with retry_after", i, res, CodeStorage)
		}
	}
	rs.mu.Lock()
	refused := append([]int(nil), rs.refused...)
	rs.mu.Unlock()
	if len(refused) != 1 || refused[0] != 2*n {
		t.Fatalf("refused appends carried %v records, want one group of %d (commit + idempotency record per chunk)", refused, 2*n)
	}
	if got := srv.Stats(); got != before {
		t.Fatalf("a refused group changed the stats: %+v, was %+v", got, before)
	}
	if len(serverUsers(srv)) != 0 || len(srv.publishedSnapshot()) != 0 {
		t.Fatal("a refused group left users or fragments behind")
	}

	rs.refuse.Store(false)
	for i, res := range serveBatch(t, h, body) {
		if res.Status != http.StatusOK || res.Replay {
			t.Fatalf("retry of chunk %d: %+v, want a fresh 200", i, res)
		}
	}
	if st := srv.Stats(); st.Uploads != n {
		t.Fatalf("uploads after the retry = %d, want %d", st.Uploads, n)
	}
	if fp.calls != 2*n {
		t.Fatalf("protector ran %d times, want %d (refused run + retry)", fp.calls, 2*n)
	}
}

// TestFaultInjectionGroupFrame extends the crash-point sweep to commit
// groups: crash the filesystem at every mutating operation — torn at
// several offsets inside a multi-chunk frame — reboot from the log, and
// require that no acknowledged chunk is lost, that recovery sees each
// group whole or not at all, and that a keyed retry of an unacknowledged
// group executes exactly once.
func TestFaultInjectionGroupFrame(t *testing.T) {
	const batches, per = 2, 6
	bodies := make([]string, batches)
	chunks := make([][]BatchChunk, batches)
	for b := range bodies {
		chunks[b] = keyedBatch("alice", fmt.Sprintf("b%d", b), per)
		bodies[b] = batchBody(t, chunks[b])
	}
	manual := func() Option { return WithClock(clock.NewManual(time.Unix(1_700_000_000, 0))) }

	// Clean run: the fault schedule, and proof that a batch is one frame.
	probe := store.NewFaultFS(store.NewMemFS())
	srvP, _ := newWALServer(t, probe, &fakeProtector{}, manual())
	for _, body := range bodies {
		for i, res := range serveBatch(t, srvP.Handler(), body) {
			if res.Status != http.StatusOK {
				t.Fatalf("clean run chunk %d: %+v", i, res)
			}
		}
	}
	if g := srvP.commitGroups.Load(); g != batches {
		t.Fatalf("clean run committed %d groups, want one per batch (%d)", g, batches)
	}
	totalOps := probe.Ops()

	for failAt := 1; failAt <= totalOps; failAt++ {
		// -1: the operation is lost whole; the others let a write land that
		// many bytes — inside the frame header, inside the first chunk's
		// record, and chunks deep into the group.
		for _, partial := range []int{-1, 3, 100, 700} {
			disk := store.NewMemFS()
			ffs := store.NewFaultFS(disk)
			ffs.FailAt(failAt, partial)
			srvA, _ := newWALServer(t, ffs, &fakeProtector{}, manual())
			acked := make([][]bool, batches)
			ackedCount := 0
			for b, body := range bodies {
				acked[b] = make([]bool, per)
				for i, res := range serveBatch(t, srvA.Handler(), body) {
					switch res.Status {
					case http.StatusOK:
						acked[b][i] = true
						ackedCount++
					case http.StatusServiceUnavailable:
					default:
						t.Fatalf("failAt=%d partial=%d batch %d chunk %d: %+v", failAt, partial, b, i, res)
					}
				}
			}
			ffs.Kill()

			fpB := &fakeProtector{}
			srvB, _ := newWALServer(t, disk, fpB, manual())
			// Before any retry: every group is there whole or not at all,
			// and nothing that was acknowledged is missing.
			for b := range chunks {
				recovered := 0
				for i, c := range chunks[b] {
					srvB.idem.mu.Lock()
					_, ok := srvB.idem.entries.get(idemKey(c.User, c.Key))
					srvB.idem.mu.Unlock()
					if ok {
						recovered++
					} else if acked[b][i] {
						t.Fatalf("failAt=%d partial=%d: acked chunk %d of batch %d lost", failAt, partial, i, b)
					}
				}
				if recovered != 0 && recovered != per {
					t.Fatalf("failAt=%d partial=%d: recovery saw %d of the %d chunks of group %d",
						failAt, partial, recovered, per, b)
				}
			}
			if st := srvB.Stats(); st.Uploads%per != 0 || st.Uploads < ackedCount {
				t.Fatalf("failAt=%d partial=%d: recovered %d uploads for %d acked", failAt, partial, st.Uploads, ackedCount)
			}
			recoveredUploads := srvB.Stats().Uploads

			for b, body := range bodies {
				for i, res := range serveBatch(t, srvB.Handler(), body) {
					if res.Status != http.StatusOK {
						t.Fatalf("failAt=%d partial=%d: retry of batch %d chunk %d: %+v", failAt, partial, b, i, res)
					}
					if acked[b][i] && !res.Replay {
						t.Fatalf("failAt=%d partial=%d: acked chunk %d of batch %d re-executed", failAt, partial, i, b)
					}
				}
			}
			if want := batches*per - recoveredUploads; fpB.calls != want {
				t.Fatalf("failAt=%d partial=%d: %d re-executions for %d chunks the log did not hold",
					failAt, partial, fpB.calls, want)
			}
			st := srvB.Stats()
			if st.Uploads != batches*per || st.RecordsIn != batches*per*3 || st.RecordsPublished != st.RecordsIn {
				t.Fatalf("failAt=%d partial=%d: conservation broken: %+v", failAt, partial, st)
			}
			assertUniqueFragSeqs(t, srvB, fmt.Sprintf("failAt=%d partial=%d", failAt, partial))
		}
	}
}

// TestBatchDuplicateKeyInOneBatch: a retry of a chunk that sits in the
// same batch as its original waits for the original's commit — which
// must not in turn wait for the retry.
func TestBatchDuplicateKeyInOneBatch(t *testing.T) {
	srv, err := New(&fakeProtector{}, WithClock(clock.NewManual(time.Unix(1_700_000_000, 0))))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	chunk := BatchChunk{User: "alice", Records: sampleRecords(4), Key: "same"}
	results := serveBatch(t, srv.Handler(), batchBody(t, []BatchChunk{chunk, chunk, chunk}))
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	replays := 0
	for i, res := range results {
		if res.Status != http.StatusOK {
			t.Fatalf("chunk %d: %+v", i, res)
		}
		if res.Replay {
			replays++
		}
	}
	if replays != 2 || srv.Stats().Uploads != 1 {
		t.Fatalf("%d replays, %d uploads; want 2 and 1", replays, srv.Stats().Uploads)
	}
}

// TestBatchLockStepClient: a client that sends one line, waits for its
// result and only then sends the next gets every result, on a clock that
// is never advanced: nothing in the window waits for time to pass.
func TestBatchLockStepClient(t *testing.T) {
	_, hs := newWALServer(t, store.NewMemFS(), &fakeProtector{},
		WithClock(clock.NewManual(time.Unix(1_700_000_000, 0))))
	pr, pw := io.Pipe()
	lines, done := streamBatch(t, hs.URL, pr)
	defer done()
	const n = 12
	for i, c := range keyedBatch("alice", "k", n) {
		if _, err := io.WriteString(pw, batchLine(t, c)); err != nil {
			t.Fatal(err)
		}
		select {
		case res := <-lines:
			if res.Index != i || res.Status != http.StatusOK {
				t.Fatalf("result %d: %+v", i, res)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no result for line %d while the next line is withheld", i)
		}
	}
	pw.Close()
	if _, ok := <-lines; ok {
		t.Fatal("more result lines than chunks")
	}
}

// blockOn blocks Protect for one user until released; everyone else
// passes through a fakeProtector.
type blockOn struct {
	fakeProtector
	user    string
	started chan struct{}
	release chan struct{}
}

func (b *blockOn) Protect(t trace.Trace) (core.Result, error) {
	if t.User == b.user {
		b.started <- struct{}{}
		<-b.release
	}
	return b.fakeProtector.Protect(t)
}

// TestBatchBlockedNeighbourDoesNotHoldResult: chunk 0's result line
// arrives while chunk 1 is still being protected.
func TestBatchBlockedNeighbourDoesNotHoldResult(t *testing.T) {
	bp := &blockOn{user: "slow", started: make(chan struct{}, 1), release: make(chan struct{})}
	srv, err := New(bp, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	body := batchLine(t, BatchChunk{User: "fast", Records: sampleRecords(3)}) +
		batchLine(t, BatchChunk{User: "slow", Records: sampleRecords(3)})
	lines, done := streamBatch(t, hs.URL, strings.NewReader(body))
	defer done()
	<-bp.started
	select {
	case res := <-lines:
		if res.Index != 0 || res.Status != http.StatusOK {
			t.Fatalf("first result: %+v", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("chunk 0's result is held behind chunk 1's protection")
	}
	close(bp.release)
	if res := <-lines; res.Index != 1 || res.Status != http.StatusOK {
		t.Fatalf("second result: %+v", res)
	}
}

// countingGate blocks every Protect until released and counts how many
// are inside.
type countingGate struct {
	fakeProtector
	inside  atomic.Int64
	release chan struct{}
}

func (g *countingGate) Protect(t trace.Trace) (core.Result, error) {
	g.inside.Add(1)
	<-g.release
	return g.fakeProtector.Protect(t)
}

// TestBatchInflightBytesBounded: the in-flight window is bounded in
// bytes as well as in chunks — with lines of the maximum size the reader
// stalls once batchInflightBytes are dispatched, long before batchWindow
// lines are.
func TestBatchInflightBytesBounded(t *testing.T) {
	const lines = 7
	fit := batchInflightBytes / maxBatchLineBytes
	if fit >= lines || fit >= batchWindow {
		t.Fatalf("test needs more lines than the %d the budget admits", fit)
	}
	cg := &countingGate{release: make(chan struct{})}
	srv, err := New(cg, WithWorkers(lines), WithQueueDepth(lines))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	// Each line is a small chunk padded with insignificant whitespace to
	// exactly the line limit (delimiter included), generated as it is sent.
	docs := make([]string, lines)
	for i := range docs {
		docs[i] = strings.TrimSuffix(batchLine(t, BatchChunk{User: fmt.Sprintf("u%d", i), Records: sampleRecords(2)}), "\n")
	}
	pr, pw := io.Pipe()
	go func() {
		pad := bytes.Repeat([]byte{' '}, 1<<20)
		for _, doc := range docs {
			pw.Write([]byte(doc)) //nolint:errcheck // a failed write fails the reads below
			for left := maxBatchLineBytes - 1 - len(doc); left > 0; {
				n := min(left, len(pad))
				pw.Write(pad[:n]) //nolint:errcheck
				left -= n
			}
			pw.Write([]byte{'\n'}) //nolint:errcheck
		}
		pw.Close()
	}()
	results, done := streamBatch(t, hs.URL, pr)
	defer done()

	// The budget admits fit lines; every worker is free, so each admitted
	// line reaches Protect and blocks there. No further line may follow.
	deadline := time.Now().Add(10 * time.Second)
	for cg.inside.Load() < int64(fit) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of the %d lines the budget admits reached the engine", cg.inside.Load(), fit)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	if got := cg.inside.Load(); got != int64(fit) {
		t.Fatalf("%d maximum-size lines in flight, want the %d that fit %d bytes", got, fit, batchInflightBytes)
	}
	close(cg.release)
	for i := 0; i < lines; i++ {
		res, ok := <-results
		if !ok || res.Index != i || res.Status != http.StatusOK {
			t.Fatalf("result %d: %+v (stream open: %v)", i, res, ok)
		}
	}
}

// TestBatchCancelledMidBatch: a client that hangs up mid-batch strands
// nothing. Every chunk that reached the pool still commits (alone, once
// its request's window is gone), none is applied without its sync, and a
// keyed retry replays exactly the committed ones.
func TestBatchCancelledMidBatch(t *testing.T) {
	const n = 40
	cg := &countingGate{release: make(chan struct{})}
	srv, hs := newWALServer(t, store.NewMemFS(), cg, WithWorkers(2), WithQueueDepth(n))
	chunks := keyedBatch("alice", "k", n)

	_, cancel := streamBatch(t, hs.URL, strings.NewReader(batchBody(t, chunks)))
	// Both workers are inside Protect, the rest of the batch is queued
	// behind them: hang up, and only then let the engine go.
	for cg.inside.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	time.Sleep(20 * time.Millisecond)
	close(cg.release)

	// Close drains the pool and every window: afterwards every job has
	// either committed or failed.
	hs.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Uploads == 0 || st.Uploads > n {
		t.Fatalf("uploads after the cancelled batch: %d", st.Uploads)
	}
	if got := int(srv.commits.Load()); got != st.Uploads {
		t.Fatalf("%d uploads applied, %d made durable", st.Uploads, got)
	}
	completed := 0
	srv.idem.mu.Lock()
	for _, c := range chunks {
		if e, ok := srv.idem.entries.get(idemKey(c.User, c.Key)); ok {
			if !e.completed || e.err != nil {
				srv.idem.mu.Unlock()
				t.Fatalf("key %s is held by an entry that never completed", c.Key)
			}
			completed++
		}
	}
	srv.idem.mu.Unlock()
	if completed != st.Uploads {
		t.Fatalf("%d keys completed for %d uploads", completed, st.Uploads)
	}
}

// TestServerCloseDuringBatch: Close in the middle of a batch drains the
// pool, then the commit windows, then checkpoints. Every chunk is either
// acknowledged 200 after its sync — and then survives the reboot — or
// refused with its key released; none is answered "shutting down" while
// its commit is parked.
func TestServerCloseDuringBatch(t *testing.T) {
	const n = 60
	disk := store.NewMemFS()
	cg := &countingGate{release: make(chan struct{})}
	srv, hs := newWALServer(t, disk, cg, WithWorkers(2), WithQueueDepth(8),
		WithClock(clock.NewManual(time.Unix(1_700_000_000, 0))))
	chunks := keyedBatch("alice", "k", n)

	lines, done := streamBatch(t, hs.URL, strings.NewReader(batchBody(t, chunks)))
	defer done()
	for cg.inside.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	// Close is now waiting for the workers; let them go.
	time.Sleep(20 * time.Millisecond)
	close(cg.release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}

	acked := 0
	for i := 0; i < n; i++ {
		var res BatchResult
		select {
		case res = <-lines:
		case <-time.After(10 * time.Second):
			t.Fatalf("no result line %d after Close", i)
		}
		switch {
		case res.Status == http.StatusOK && res.Result != nil:
			acked++
		case res.Status == http.StatusServiceUnavailable && (res.Code == CodeQueueFull || res.Code == CodeShuttingDown):
		default:
			t.Fatalf("chunk %d: %+v", i, res)
		}
	}
	if st := srv.Stats(); st.Uploads != acked {
		t.Fatalf("%d chunks acknowledged, %d applied", acked, st.Uploads)
	}
	if acked < 2 {
		t.Fatalf("only %d chunks acknowledged: the drain dropped work it had accepted", acked)
	}

	srvB, _ := newWALServer(t, disk, &fakeProtector{})
	if st := srvB.Stats(); st.Uploads != acked {
		t.Fatalf("%d chunks acknowledged, %d recovered", acked, st.Uploads)
	}
}

// TestBatchUploadAllocBudget pins what the upload path allocates per
// acknowledged chunk, from the request line to the synced WAL frame:
// the request reader, line buffers, commit payloads and frames are
// pooled, and a chunk's parsed records become its trace without a copy,
// so what remains is mostly what the node keeps (and the in-memory
// log's own growth). The batches run on one P, in rounds that each
// start on a fresh log segment, and the figure is the cheapest round's
// (allocPerOp): 8,838 bytes on amd64. Before pooling the same batches
// cost 17,800 bytes a chunk.
func TestBatchUploadAllocBudget(t *testing.T) {
	batchUploadAllocBudget(t, 11<<10)
}

// TestBatchUploadAllocBudgetWithHistory runs the same batches on a node
// with a retrainer, which keeps every accepted chunk in its user's
// history. The history keeps the chunk's parsed records as they are, so
// the chunk costs its commit record's history section (and the log's
// growth for it) and a segment header: 12,983 bytes on amd64.
// Copying the records into one growing array per user cost 22,600.
func TestBatchUploadAllocBudgetWithHistory(t *testing.T) {
	batchUploadAllocBudget(t, 19<<10, WithRetrainer(noRetrain, 0))
}

// batchUploadAllocBudget fails t when the batches cost more than budget
// bytes per acknowledged chunk on a WAL node built with opts.
func batchUploadAllocBudget(t *testing.T, budget float64, opts ...Option) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	const warm, rounds, batches, perBatch, nrec = 12, 16, 8, 50, 50
	w, err := store.NewWAL(store.WALOptions{Dir: "wal", FS: store.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(&fakeProtector{}, append([]Option{WithStore(w), WithCheckpointInterval(-1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck // in-memory log
	h := srv.Handler()

	// Every batch has a user of its own, so each round's keys are fresh
	// and its chunks commit rather than replay.
	bodies := make([]string, warm+rounds*batches)
	for b := range bodies {
		chunks := make([]BatchChunk, perBatch)
		for i := range chunks {
			recs := sampleRecords(nrec)
			for r := range recs {
				recs[r].TS += int64(b*perBatch+i) * 86400
			}
			chunks[i] = BatchChunk{User: fmt.Sprintf("user-%02d", b), Records: recs, Key: fmt.Sprintf("k-%03d", i)}
		}
		bodies[b] = batchBody(t, chunks)
	}
	// The batches run on one P: how the commit window groups the chunk
	// goroutines' commits into frames, and so when the in-memory log's
	// buffer grows, follows the scheduler, and with more Ps identical
	// runs move by a kilobyte a chunk.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	recorders := make([]*httptest.ResponseRecorder, len(bodies))
	serve := func(b int) {
		recorders[b] = httptest.NewRecorder()
		h.ServeHTTP(recorders[b], httptest.NewRequest(http.MethodPost, "/v2/traces", strings.NewReader(bodies[b])))
	}
	for b := 0; b < warm; b++ {
		serve(b)
	}
	// Each round starts on a fresh log segment, so the in-memory log grows
	// the same steps in every round; the warm-up batches fill the pools.
	checkpoint := func() {
		if err := srv.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	perChunk := allocPerOp(t, fmt.Sprintf("acknowledged chunk of %d records", nrec), rounds, batches*perBatch, checkpoint, func(round int) {
		for b := warm + round*batches; b < warm+(round+1)*batches; b++ {
			serve(b)
		}
	})

	acked := 0
	for b, rec := range recorders[warm:] {
		dec := json.NewDecoder(rec.Body)
		for dec.More() {
			var res BatchResult
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
			if res.Status != http.StatusOK || res.Replay {
				t.Fatalf("batch %d chunk %d: %+v", b, res.Index, res)
			}
			acked++
		}
	}
	if acked != rounds*batches*perBatch {
		t.Fatalf("%d chunks acknowledged, want %d", acked, rounds*batches*perBatch)
	}
	if perChunk > budget {
		t.Fatalf("the upload path allocated %.0f bytes per acknowledged chunk, over its budget of %.0f", perChunk, budget)
	}
}
