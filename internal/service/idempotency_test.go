package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mood/internal/core"
	"mood/internal/mathx"
	"mood/internal/trace"
)

// TestIdempotencyReplaySync: a second sync upload with the same key must
// not commit again — same response, one protector call, one commit.
func TestIdempotencyReplaySync(t *testing.T) {
	fp := &fakeProtector{}
	srv, err := New(fp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	r1 := postChunk(t, hs.URL, keyed("alice", "chunk-2026-07-28", 30))
	if r1.Status != http.StatusOK {
		t.Fatalf("first upload: %+v", r1)
	}
	if r1.Replay {
		t.Fatal("first upload flagged as replay")
	}
	r2 := postChunk(t, hs.URL, keyed("alice", "chunk-2026-07-28", 30))
	if r2.Status != http.StatusOK {
		t.Fatalf("replay: %+v", r2)
	}
	if !r2.Replay {
		t.Fatal("replay not flagged")
	}
	if !bytesEqualJSON(t, r1.Result, r2.Result) {
		t.Fatalf("replay response differs: %+v vs %+v", r1.Result, r2.Result)
	}
	if fp.calls != 1 {
		t.Fatalf("protector ran %d times, want 1", fp.calls)
	}
	st := srv.Stats()
	if st.Uploads != 1 || st.RecordsIn != 30 {
		t.Fatalf("replay committed again: %+v", st)
	}
	// A different key from the same user executes normally.
	if r3 := postChunk(t, hs.URL, keyed("alice", "chunk-2026-07-29", 30)); r3.Status != http.StatusOK || r3.Replay {
		t.Fatalf("fresh key replayed: %+v", r3)
	}
	if srv.Stats().Uploads != 2 {
		t.Fatalf("uploads = %d, want 2", srv.Stats().Uploads)
	}
}

// TestIdempotencyScopedPerUser: the same key from two users must not
// collide.
func TestIdempotencyScopedPerUser(t *testing.T) {
	srv, hs := newTestServer(t)
	if r := postChunk(t, hs.URL, keyed("alice", "day-1", 25)); r.Status != http.StatusOK {
		t.Fatalf("alice: %+v", r)
	}
	if r := postChunk(t, hs.URL, keyed("bob", "day-1", 25)); r.Status != http.StatusOK || r.Replay {
		t.Fatalf("bob's first upload treated as replay: %+v", r)
	}
	if srv.Stats().Uploads != 2 {
		t.Fatalf("uploads = %d, want 2", srv.Stats().Uploads)
	}
}

// slowProtector blocks until released, so tests can park an upload
// in-flight; entered signals each call reaching the protector.
type slowProtector struct {
	entered chan struct{}
	release chan struct{}
	mu      sync.Mutex
	calls   int
}

func (p *slowProtector) Protect(tr trace.Trace) (core.Result, error) {
	p.mu.Lock()
	p.calls++
	p.mu.Unlock()
	if p.entered != nil {
		p.entered <- struct{}{}
	}
	<-p.release
	return core.Result{
		User:         tr.User,
		TotalRecords: tr.Len(),
		Pieces: []core.Piece{{
			Trace:         tr.WithUser("anon-slow"),
			Mechanism:     "slow",
			SourceRecords: tr.Len(),
		}},
	}, nil
}

// TestIdempotencyRetryAfterTimeout is the ROADMAP scenario: the first
// sync batch is cancelled while its chunk is still running; the keyed
// retry must wait for the original outcome and commit exactly once.
func TestIdempotencyRetryAfterTimeout(t *testing.T) {
	sp := &slowProtector{entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv, err := New(sp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	// The first request is cancelled only once its job provably reached
	// the protector, so the cancellation always races a live upload —
	// deterministic, where the historical 150 ms wall-clock timeout was
	// a guess.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	line := batchLine(t, keyed("carol", "carol-day-1", 20))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v2/traces", strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	firstErr := make(chan error, 1)
	go func() {
		resp, err := hs.Client().Do(req)
		if err == nil {
			// Headers made it out: the cancellation surfaces in the body.
			_, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		firstErr <- err
	}()
	select {
	case <-sp.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("upload never reached the protector")
	}
	cancel()
	if err := <-firstErr; err == nil {
		t.Fatal("expected the first request to fail on context cancellation")
	}

	// Retry while the original is still in flight, then release it: the
	// retry must attach to the original, not enqueue again.
	close(sp.release)
	r2 := postChunk(t, hs.URL, keyed("carol", "carol-day-1", 20))
	if r2.Status != http.StatusOK {
		t.Fatalf("retry: %+v", r2)
	}
	if !r2.Replay {
		t.Fatal("retry not served as replay")
	}
	if r2.Result.Accepted != 20 {
		t.Fatalf("retry accepted %d, want 20", r2.Result.Accepted)
	}
	if sp.calls != 1 {
		t.Fatalf("protector ran %d times, want 1", sp.calls)
	}
	if st := srv.Stats(); st.Uploads != 1 || st.RecordsIn != 20 {
		t.Fatalf("chunk committed twice: %+v", st)
	}
}

// TestIdempotencyAsyncReplay: an async retry under the same key gets the
// same job handle instead of a second job.
func TestIdempotencyAsyncReplay(t *testing.T) {
	srv, hs := newTestServer(t)
	chunk := keyed("dave", "dave-day-1", 15)
	chunk.Async = true
	r1 := postChunk(t, hs.URL, chunk)
	if r1.Status != http.StatusAccepted || r1.Replay {
		t.Fatalf("first async: %+v", r1)
	}
	r2 := postChunk(t, hs.URL, chunk)
	if r2.Status != http.StatusAccepted || !r2.Replay {
		t.Fatalf("async replay: %+v", r2)
	}
	if r1.Job.ID != r2.Job.ID {
		t.Fatalf("replay created a new job: %s vs %s", r1.Job.ID, r2.Job.ID)
	}
	// Join the job through its idempotency entry (completed only after
	// the commit) instead of sleep-polling the stats.
	waitIdemDone(t, srv, "dave", "dave-day-1", sampleRecords(15))
	if st := srv.Stats(); st.Uploads != 1 || st.RecordsIn != 15 {
		t.Fatalf("async replay committed twice: %+v", st)
	}
}

// waitIdemDone blocks until the (user, key) idempotency entry reports
// its outcome — a deterministic join on an async upload's commit, with
// no wall-clock polling. The records must match the original upload
// (begin checks the payload fingerprint).
func waitIdemDone(t *testing.T, srv *Server, user, key string, records []trace.Record) {
	t.Helper()
	e, isNew := srv.idem.begin(user, key, uploadFingerprint(trace.New(user, records)))
	if isNew {
		t.Fatalf("idempotency entry for (%s, %s) was never created", user, key)
	}
	select {
	case <-e.done:
	case <-time.After(5 * time.Second):
		t.Fatalf("upload (%s, %s) never completed", user, key)
	}
}

// TestIdempotencyFailureReleasesKey: a failed upload must free its key
// so a retry re-executes (the failure committed nothing).
func TestIdempotencyFailureReleasesKey(t *testing.T) {
	fp := &fakeProtector{}
	srv, err := New(fp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	if r1 := postChunk(t, hs.URL, keyed("boom-eve", "eve-day-1", 10)); r1.Status != http.StatusInternalServerError {
		t.Fatalf("first upload: %+v, want 500", r1)
	}
	r2 := postChunk(t, hs.URL, keyed("boom-eve", "eve-day-1", 10))
	if r2.Status != http.StatusInternalServerError {
		t.Fatalf("retry: %+v, want 500 from a fresh execution", r2)
	}
	if r2.Replay {
		t.Fatal("failed upload replayed instead of re-executed")
	}
	if fp.calls != 2 {
		t.Fatalf("protector ran %d times, want 2 (failure released the key)", fp.calls)
	}
}

// TestIdempotencyKeyTooLong: oversized keys are rejected up front.
func TestIdempotencyKeyTooLong(t *testing.T) {
	_, hs := newTestServer(t)
	long := strings.Repeat("k", maxIdempotencyKeyLen+1)
	if r := postChunk(t, hs.URL, keyed("alice", long, 10)); r.Status != http.StatusBadRequest || r.Code != CodeKeyTooLong {
		t.Fatalf("oversized key: %+v, want 400 %s", r, CodeKeyTooLong)
	}
}

// settle finishes an entry as the service does: a committed upload
// completes it, a failed one releases its key.
func settle(st *idemStore, user, key string, e *idemEntry, resp UploadResponse, err error) {
	if err != nil {
		st.release(user, key, e, err)
		return
	}
	st.complete(durable{}, e, resp)
}

// TestIdemStoreEviction: the dedupe window stays bounded and evicts
// oldest-completed first.
func TestIdemStoreEviction(t *testing.T) {
	st := newIdemStore(4)
	var first *idemEntry
	for i := 0; i < 8; i++ {
		user := fmt.Sprintf("u%d", i)
		e, isNew := st.begin(user, "k", 0)
		if !isNew {
			t.Fatalf("entry %d not new", i)
		}
		if i == 0 {
			first = e
		}
		settle(st, user, "k", e, UploadResponse{Accepted: i}, nil)
	}
	if len(st.entries.m) > 4 {
		t.Fatalf("window grew to %d entries, cap 4", len(st.entries.m))
	}
	if _, ok := st.entries.get(idemKey("u0", "k")); ok {
		t.Fatal("oldest entry survived eviction")
	}
	// The evicted entry pointer still works for in-flight holders.
	if resp, done, _ := st.outcome(first); !done || resp.Accepted != 0 {
		t.Fatal("evicted entry lost its outcome")
	}
	// A replay of an evicted key re-executes (dedupe forgotten, by design).
	if _, isNew := st.begin("u0", "k", 0); !isNew {
		t.Fatal("evicted key should be fresh again")
	}
}

// TestIdemStoreRetryAgesFromLatestBegin: a key released by a failure
// and begun again is as young as its retry. At window 2 — K fails, B
// succeeds, K is retried and succeeds, C succeeds — B is the oldest
// entry and is evicted, and a further retry of K replays instead of
// committing a second time.
func TestIdemStoreRetryAgesFromLatestBegin(t *testing.T) {
	st := newIdemStore(2)
	run := func(user string, err error) {
		t.Helper()
		e, isNew := st.begin(user, "k", 0)
		if !isNew {
			t.Fatalf("%s: begin replayed", user)
		}
		settle(st, user, "k", e, UploadResponse{}, err)
	}
	run("K", fmt.Errorf("boom"))
	run("B", nil)
	run("K", nil)
	run("C", nil)
	if _, ok := st.entries.get(idemKey("B", "k")); ok {
		t.Fatal("B survived: eviction ran by K's first, released begin")
	}
	if _, isNew := st.begin("K", "k", 0); isNew {
		t.Fatal("retry of K re-executed: a double commit")
	}
}

// TestIdemStorePendingNeverEvicted: pending entries must survive even a
// tiny window, or a retry could re-execute an in-flight upload.
func TestIdemStorePendingNeverEvicted(t *testing.T) {
	st := newIdemStore(2)
	for i := 0; i < 6; i++ {
		if _, isNew := st.begin(fmt.Sprintf("u%d", i), "k", 0); !isNew {
			t.Fatalf("entry %d not new", i)
		}
	}
	for i := 0; i < 6; i++ {
		if _, isNew := st.begin(fmt.Sprintf("u%d", i), "k", 0); isNew {
			t.Fatalf("pending entry %d was evicted: a retry would double-commit", i)
		}
	}
}

// TestIdemStoreFailureCompactsOrder: repeated failures release their
// entries, leaving none behind in the map or in the insertion order,
// which walks to the same live keys from either end.
func TestIdemStoreFailureCompactsOrder(t *testing.T) {
	st := newIdemStore(64)
	for i := 0; i < 10000; i++ {
		user := fmt.Sprintf("u%d", i)
		e, _ := st.begin(user, "k", 0)
		var err error
		if i%7 != 0 {
			err = fmt.Errorf("boom")
		}
		settle(st, user, "k", e, UploadResponse{}, err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var forward, backward []string
	for e := st.entries.oldest; e != nil; e = e.newer {
		forward = append(forward, e.key)
	}
	for e := st.entries.newest; e != nil; e = e.older {
		backward = append(backward, e.key)
	}
	slices.Reverse(backward)
	if len(st.entries.m) > 64 || !slices.Equal(forward, backward) || len(forward) != len(st.entries.m) {
		t.Fatalf("%d entries (cap 64), order %d forward and %d backward", len(st.entries.m), len(forward), len(backward))
	}
	for _, k := range forward {
		e, ok := st.entries.get(k)
		if !ok || e.err != nil {
			t.Fatalf("key %q is in the order but not a live successful entry", k)
		}
	}
}

// TestIdempotencyShedAsyncJobStaysPollable: when the pool refuses a
// keyed async chunk (its request ended while the chunk waited for a
// queue slot), the job handle a concurrent replay may have seen must
// resolve to "failed", not 404, and the key must be released so the
// retry executes.
func TestIdempotencyShedAsyncJobStaysPollable(t *testing.T) {
	gp := &gatedProtector{started: make(chan string, 8), gate: make(chan struct{})}
	srv, err := New(gp, WithWorkers(1), WithQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	// Occupy the worker, then fill the queue.
	go NewClient(hs.URL).UploadBatch([]BatchChunk{keyed("occupant", "", 3)}) //nolint:errcheck
	select {
	case <-gp.started:
	case <-time.After(5 * time.Second):
		t.Fatal("occupant never reached the protector")
	}
	filler := keyed("filler", "", 3)
	filler.Async = true
	if r := postChunk(t, hs.URL, filler); r.Status != http.StatusAccepted {
		t.Fatalf("filler: %+v", r)
	}

	// A keyed async chunk now waits for a queue slot; its request ends
	// before one frees.
	frank := keyed("frank", "frank-day-1", 3)
	frank.Async = true
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v2/traces", strings.NewReader(batchLine(t, frank))).WithContext(ctx)
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		srv.Handler().ServeHTTP(rec, req)
		close(served)
	}()
	var jid string
	for deadline := time.Now().Add(5 * time.Second); jid == ""; {
		if time.Now().After(deadline) {
			t.Fatal("frank's job was never created")
		}
		if list := srv.jobs.list("", "frank", 1); list.Total > 0 {
			jid = list.Jobs[0].ID
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	<-served
	var res BatchResult
	if err := json.NewDecoder(rec.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusServiceUnavailable || res.RetryAfterSeconds == 0 {
		t.Fatalf("refused chunk = %+v, want 503 with retry_after", res)
	}

	// The job the (hypothetical) concurrent replay saw resolves "failed".
	if j, ok := srv.jobs.get(jid); !ok || j.State != JobFailed {
		t.Fatalf("refused keyed job state = %+v (found %v), want failed", j, ok)
	}

	// The refusal released the key: once the pool frees up, the retry
	// executes instead of replaying the refusal.
	close(gp.gate)
	if r := postChunk(t, hs.URL, frank); r.Status != http.StatusAccepted || r.Replay {
		t.Fatalf("retry after refusal: %+v, want a fresh 202", r)
	}
}

// TestIdempotencyPayloadMismatch: reusing a key with a different body is
// a client bug and must be rejected, not silently answered with the
// first body's result.
func TestIdempotencyPayloadMismatch(t *testing.T) {
	srv, hs := newTestServer(t)
	if r := postChunk(t, hs.URL, keyed("gina", "day-1", 20)); r.Status != http.StatusOK {
		t.Fatalf("first upload: %+v", r)
	}
	// Same key, different records (different count → different payload).
	if r2 := postChunk(t, hs.URL, keyed("gina", "day-1", 21)); r2.Status != http.StatusUnprocessableEntity || r2.Code != CodeKeyReuse {
		t.Fatalf("mismatched payload reuse: %+v, want 422 %s", r2, CodeKeyReuse)
	}
	if st := srv.Stats(); st.Uploads != 1 || st.RecordsIn != 20 {
		t.Fatalf("mismatched payload affected state: %+v", st)
	}
	// The identical payload still replays fine afterwards.
	if r3 := postChunk(t, hs.URL, keyed("gina", "day-1", 20)); r3.Status != http.StatusOK || !r3.Replay {
		t.Fatalf("replay after mismatch: %+v", r3)
	}
}

// TestIdempotencyAsyncReplayAfterJobEviction: an async replay whose job
// handle was evicted from the job store must still get a JobStatus (the
// async contract), rebuilt from the entry's outcome.
func TestIdempotencyAsyncReplayAfterJobEviction(t *testing.T) {
	srv, hs := newTestServer(t)
	chunk := keyed("hank", "hank-day-1", 12)
	chunk.Async = true
	r1 := postChunk(t, hs.URL, chunk)
	if r1.Status != http.StatusAccepted {
		t.Fatalf("first async: %+v", r1)
	}
	// Join the upload, then evict the job handle. The entry completes
	// before the job is marked done, and remove tolerates either order.
	waitIdemDone(t, srv, "hank", "hank-day-1", sampleRecords(12))
	srv.jobs.remove(r1.Job.ID)

	r2 := postChunk(t, hs.URL, chunk)
	if r2.Status != http.StatusOK || !r2.Replay {
		t.Fatalf("post-eviction async replay: %+v, want a 200 replay", r2)
	}
	if j2 := r2.Job; j2 == nil || j2.ID != r1.Job.ID || j2.State != JobDone || j2.Result == nil || j2.Result.Accepted != 12 {
		t.Fatalf("rebuilt JobStatus wrong: %+v", r2.Job)
	}
	if st := srv.Stats(); st.Uploads != 1 {
		t.Fatalf("replay committed again: %+v", st)
	}
}

// naiveIdem is the dedupe window's reference: live keys and their
// completion, in begin order, rebuilt by one full pass per eviction.
type naiveIdem struct {
	cap   int
	done  map[string]bool
	order []string
}

func (n *naiveIdem) begin(k string) bool {
	if _, ok := n.done[k]; ok {
		return false
	}
	n.done[k] = false
	n.order = append(n.order, k)
	if len(n.done) > n.cap {
		kept := n.order[:0]
		for _, k := range n.order {
			if len(n.done) > n.cap && n.done[k] {
				delete(n.done, k)
				continue
			}
			kept = append(kept, k)
		}
		n.order = kept
	}
	return true
}

func (n *naiveIdem) complete(k string, failed bool) {
	n.done[k] = true
	if failed {
		delete(n.done, k)
		n.order = slices.DeleteFunc(n.order, func(o string) bool { return o == k })
	}
}

// TestIdemStoreEvictionMatchesReference holds both tables that share
// the retention table's eviction — the dedupe window and the job store
// — to naive references that rescan the whole table on every eviction.
func TestIdemStoreEvictionMatchesReference(t *testing.T) {
	t.Run("dedupe window", testIdemWindowMatchesReference)
	t.Run("job store", testJobStoreMatchesReference)
}

// testIdemWindowMatchesReference runs three windows' worth of keyed
// begins — retries of earlier keys, failures, entries pending for a few
// begins and one pending across thousands — and holds the live key set
// and the snapshot order to the reference's throughout.
func testIdemWindowMatchesReference(t *testing.T) {
	const n = 3 * idempotencyWindow
	st := newIdemStore(idempotencyWindow)
	ref := &naiveIdem{cap: idempotencyWindow, done: map[string]bool{}}
	type open struct {
		user, key string
		e         *idemEntry
	}
	var pending []open
	var held open
	rng := mathx.NewRand(9)
	finish := func(p open) {
		var err error
		if rng.Intn(10) == 0 {
			err = errors.New("boom")
		}
		settle(st, p.user, p.key, p.e, UploadResponse{}, err)
		ref.complete(idemKey(p.user, p.key), err != nil)
	}
	for i := 0; i < n; i++ {
		user, key := fmt.Sprintf("u%d", rng.Intn(50)), fmt.Sprintf("k%d", i)
		if i > 0 && rng.Intn(20) == 0 {
			key = fmt.Sprintf("k%d", rng.Intn(i)) // a retry, or a key reused after eviction
		}
		e, isNew := st.begin(user, key, 0)
		if isNew != ref.begin(idemKey(user, key)) {
			t.Fatalf("begin %d: new = %v, reference disagrees", i, isNew)
		}
		switch {
		case !isNew:
		case i == idempotencyWindow/2:
			held = open{user, key, e} // stays pending while the window turns over
		default:
			pending = append(pending, open{user, key, e})
		}
		for len(pending) > 8 || (len(pending) > 0 && rng.Intn(2) == 0) {
			j := rng.Intn(len(pending))
			finish(pending[j])
			pending[j] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
		}
		if i == 2*idempotencyWindow {
			finish(held)
		}
		if i%101 != 0 && i != n-1 {
			continue
		}
		st.mu.Lock()
		live := len(st.entries.m)
		for k := range ref.done {
			if _, ok := st.entries.get(k); !ok {
				t.Fatalf("begin %d: key %q is live in the reference only", i, k)
			}
		}
		st.mu.Unlock()
		if live != len(ref.done) {
			t.Fatalf("begin %d: %d live keys, reference has %d", i, live, len(ref.done))
		}
		var want []string
		for _, k := range ref.order {
			if ref.done[k] {
				want = append(want, k)
			}
		}
		var got []string
		for _, pe := range st.snapshot() {
			got = append(got, pe.Key)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("begin %d: snapshot order departs from the reference's", i)
		}
	}
}

// naiveJobs is the job store's reference: the map beside an
// insertion-order slice that the store kept before it shared the dedupe
// window's table, with its eviction pass (a rescan of the whole order
// on every insert past the cap) and its lazily compacted remove.
type naiveJobs struct {
	cap   int
	jobs  map[string]string // id → state
	order []string
}

func (n *naiveJobs) put(id, state string) {
	if _, ok := n.jobs[id]; !ok {
		n.order = append(n.order, id)
	}
	n.jobs[id] = state
	n.evictLocked()
}

// set moves a live job to state, as setRunning, setDone and setFailed do.
func (n *naiveJobs) set(id, state string) {
	if _, ok := n.jobs[id]; ok {
		n.jobs[id] = state
	}
}

func (n *naiveJobs) evictLocked() {
	if len(n.jobs) <= n.cap {
		return
	}
	kept := n.order[:0]
	for _, id := range n.order {
		state, ok := n.jobs[id]
		if !ok {
			continue
		}
		if len(n.jobs) > n.cap && (state == JobDone || state == JobFailed) {
			delete(n.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	n.order = kept
}

func (n *naiveJobs) remove(id string) {
	delete(n.jobs, id)
	if len(n.order) > 2*len(n.jobs)+16 {
		kept := n.order[:0]
		for _, oid := range n.order {
			if _, ok := n.jobs[oid]; ok {
				kept = append(kept, oid)
			}
		}
		n.order = kept
	}
}

// listed returns the live jobs whose state keep accepts, each once, in
// insertion order.
func (n *naiveJobs) listed(keep func(state string) bool) []string {
	var out []string
	seen := map[string]bool{}
	for _, id := range n.order {
		state, ok := n.jobs[id]
		if !ok || seen[id] {
			continue
		}
		seen[id] = true
		if keep(state) {
			out = append(out, id)
		}
	}
	return out
}

// testJobStoreMatchesReference drives a job store with a small cap
// through random creates, state changes, removals and restored terminal
// jobs — new ones and overwrites of live ones — with one job left queued
// while the table turns over, and holds the live jobs, their states and
// the list and terminal orders to the reference's throughout.
func testJobStoreMatchesReference(t *testing.T) {
	const capacity, n = 256, 12 * 256
	js := newJobStore()
	js.jobs.cap = capacity
	ref := &naiveJobs{cap: capacity, jobs: map[string]string{}}
	rng := mathx.NewRand(11)
	var open []string // queued or running jobs, in no order
	var held string
	take := func() string {
		i := rng.Intn(len(open))
		id := open[i]
		open[i] = open[len(open)-1]
		open = open[:len(open)-1]
		return id
	}
	ids := func(jobs []JobStatus) []string {
		out := make([]string, 0, len(jobs))
		for _, j := range jobs {
			out = append(out, j.ID)
		}
		return out
	}
	for i := 0; i < n; i++ {
		switch r := rng.Intn(20); {
		case r < 8 || len(open) == 0:
			j := js.create(fmt.Sprintf("u%d", rng.Intn(10)))
			ref.put(j.ID, JobQueued)
			if i == capacity/2 {
				held = j.ID
			} else {
				open = append(open, j.ID)
			}
		case r < 10:
			id := open[rng.Intn(len(open))]
			js.setRunning(id)
			ref.set(id, JobRunning)
		case r < 14:
			id := take()
			js.setDone(durable{}, id, UploadResponse{Accepted: i})
			ref.set(id, JobDone)
		case r < 15:
			id := take()
			js.setFailed(id, errors.New("boom"))
			ref.set(id, JobFailed)
		case r < 16:
			id := take()
			js.remove(id)
			ref.remove(id)
		case r < 19:
			// A terminal job restored from a snapshot or a WAL record.
			id := fmt.Sprintf("job-restored-%d", i)
			if r == 18 {
				id = open[rng.Intn(len(open))] // a record newer than the live entry
			}
			state := JobDone
			if rng.Intn(4) == 0 {
				state = JobFailed
			}
			js.applyTerminal(durable{}, JobStatus{ID: id, User: "r", State: state})
			ref.put(id, state)
		default:
			// A late outcome for a job that may be gone.
			js.setDone(durable{}, "job-gone", UploadResponse{})
		}
		if i == 8*capacity {
			js.setDone(durable{}, held, UploadResponse{})
			ref.set(held, JobDone)
		}
		if i%37 != 0 && i != n-1 {
			continue
		}
		js.mu.Lock()
		live := len(js.jobs.m)
		for id, state := range ref.jobs {
			if j, ok := js.jobs.get(id); !ok || j.State != state {
				t.Fatalf("op %d: job %s is %s in the reference, store has %+v", i, id, state, j)
			}
		}
		js.mu.Unlock()
		if live != len(ref.jobs) {
			t.Fatalf("op %d: %d live jobs, reference has %d", i, live, len(ref.jobs))
		}
		all := ref.listed(func(string) bool { return true })
		if got := js.list("", "", math.MaxInt); !slices.Equal(ids(got.Jobs), all) || got.Total != len(all) {
			t.Fatalf("op %d: list order departs from the reference's", i)
		}
		done := ref.listed(func(s string) bool { return s == JobDone })
		if got := js.list(JobDone, "", math.MaxInt); !slices.Equal(ids(got.Jobs), done) {
			t.Fatalf("op %d: done-filtered list departs from the reference's", i)
		}
		finished := ref.listed(func(s string) bool { return s == JobDone || s == JobFailed })
		if got := ids(js.terminal()); !slices.Equal(got, finished) {
			t.Fatalf("op %d: terminal order departs from the reference's", i)
		}
	}
}

// TestJobStoreCreateStaysCheapPastCap: past its cap, the job store
// evicts its oldest finished job in O(1) time, so an async upload costs
// the same past the cap as below it, instead of a rescan of the whole
// table under the lock every job poll takes. A job still queued at the
// head of the store costs one step per eviction, not a rescan of what
// was evicted behind it.
func TestJobStoreCreateStaysCheapPastCap(t *testing.T) {
	if raceEnabled {
		t.Skip("a wall-clock bound: the race detector slows map work several-fold")
	}
	run := func(t *testing.T, queued int, bound time.Duration) {
		js := newJobStore()
		for i := 0; i < queued; i++ {
			js.create("queued")
		}
		for i := 0; i < maxRetainedJobs; i++ {
			js.setDone(durable{}, js.create("u").ID, UploadResponse{})
		}
		start := time.Now()
		for i := 0; i < 10000; i++ {
			js.setDone(durable{}, js.create("u").ID, UploadResponse{})
		}
		d := time.Since(start)
		t.Logf("10000 creates past the cap behind %d queued jobs: %v", queued, d)
		if d > bound {
			t.Fatalf("10000 creates past the cap took %v, want under %v", d, bound)
		}
		if n := len(js.jobs.m); n != maxRetainedJobs {
			t.Fatalf("store holds %d jobs, cap %d", n, maxRetainedJobs)
		}
	}
	t.Run("finished jobs only", func(t *testing.T) { run(t, 0, 250*time.Millisecond) })
	t.Run("behind a queued job", func(t *testing.T) { run(t, 1, 100*time.Millisecond) })
}
