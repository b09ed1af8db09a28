package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mood/internal/core"
	"mood/internal/trace"
)

// uploadAsync sends tr as one async chunk and returns its job handle.
func uploadAsync(t *testing.T, c *Client, tr trace.Trace) JobStatus {
	t.Helper()
	res, err := c.UploadBatch([]BatchChunk{{User: tr.User, Records: tr.Records, Async: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != http.StatusAccepted || res[0].Job == nil {
		t.Fatalf("async upload %s: %+v", tr.User, res[0])
	}
	return *res[0].Job
}

func TestAsyncUploadLifecycle(t *testing.T) {
	srv, hs := newTestServer(t)
	c := NewClient(hs.URL)

	j := uploadAsync(t, c, trace.New("alice", sampleRecords(10)))
	if j.ID == "" || j.User != "alice" {
		t.Fatalf("job = %+v", j)
	}
	done, err := c.WaitJob(j.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobDone || done.Result == nil {
		t.Fatalf("job = %+v", done)
	}
	if done.Result.Accepted != 10 || done.Result.Pieces != 1 {
		t.Fatalf("result = %+v", done.Result)
	}
	// The upload landed in the dataset and the accounting.
	if st := srv.Stats(); st.Uploads != 1 || st.RecordsPublished != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAsyncUploadFailureIsReported(t *testing.T) {
	_, hs := newTestServer(t)
	c := NewClient(hs.URL)
	j := uploadAsync(t, c, trace.New("boom-user", sampleRecords(3)))
	done, err := c.WaitJob(j.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobFailed || !strings.Contains(done.Error, "engine exploded") {
		t.Fatalf("job = %+v", done)
	}
}

func TestUnknownJob404(t *testing.T) {
	_, hs := newTestServer(t)
	resp, err := http.Get(hs.URL + "/v2/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// gatedProtector blocks every Protect call until the gate opens,
// letting tests hold the worker pool busy deterministically.
type gatedProtector struct {
	started chan string   // receives the user of each call that began
	gate    chan struct{} // close to release all calls
}

func (g *gatedProtector) Protect(t trace.Trace) (core.Result, error) {
	g.started <- t.User
	<-g.gate
	return core.Result{
		User:         t.User,
		TotalRecords: t.Len(),
		Pieces: []core.Piece{{
			Trace:         t.WithUser("anon-" + t.User),
			Mechanism:     "gated",
			SourceRecords: t.Len(),
		}},
	}, nil
}

// panicProtector exercises the worker-side panic containment.
type panicProtector struct{}

func (panicProtector) Protect(trace.Trace) (core.Result, error) { panic("engine bug") }

func TestProtectorPanicBecomes500NotCrash(t *testing.T) {
	srv, err := New(panicProtector{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL)

	if res := upload(t, c, trace.New("alice", sampleRecords(3))); res.Status != http.StatusInternalServerError {
		t.Fatalf("result = %+v, want 500", res)
	}
	// Async jobs record the panic as a failure.
	j := uploadAsync(t, c, trace.New("bob", sampleRecords(3)))
	done, err := c.WaitJob(j.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobFailed || !strings.Contains(done.Error, "panicked") {
		t.Fatalf("job = %+v", done)
	}
}

// TestParallelUploadsShardedState hammers the sharded state from many
// users at once; run under -race this is the regression test for the
// per-shard locking.
func TestParallelUploadsShardedState(t *testing.T) {
	srv, err := New(&fakeProtector{}, WithQueueDepth(256), WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	const users, uploadsPerUser = 32, 4
	var wg sync.WaitGroup
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(hs.URL)
			u := fmt.Sprintf("user-%03d", i)
			for k := 0; k < uploadsPerUser; k++ {
				async := k%2 == 1
				res, err := c.UploadBatch([]BatchChunk{{User: u, Records: sampleRecords(5), Async: async}})
				if err != nil {
					t.Error(err)
					return
				}
				if !async {
					if res[0].Status != http.StatusOK {
						t.Errorf("sync upload %s: %+v", u, res[0])
						return
					}
					continue
				}
				if res[0].Job == nil {
					t.Errorf("async upload %s: %+v", u, res[0])
					return
				}
				if _, err := c.WaitJob(res[0].Job.ID, 10*time.Second); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	st := srv.Stats()
	if st.Users != users || st.Uploads != users*uploadsPerUser {
		t.Fatalf("stats = %+v", st)
	}
	if st.RecordsIn != users*uploadsPerUser*5 || st.RecordsPublished != st.RecordsIn {
		t.Fatalf("record accounting = %+v", st)
	}
	if got := len(serverUsers(srv)); got != users {
		t.Fatalf("users = %d", got)
	}
	if got := len(srv.publishedSnapshot()); got != st.PublishedTraces {
		t.Fatalf("published snapshot %d != stats %d", got, st.PublishedTraces)
	}
}

func TestServerCloseDrainsQueuedJobs(t *testing.T) {
	gp := &gatedProtector{started: make(chan string, 8), gate: make(chan struct{})}
	srv, err := New(gp, WithWorkers(1), WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL)

	// Occupy the worker, then queue two async jobs behind it.
	first := make(chan error, 1)
	go func() {
		res, err := c.UploadBatch([]BatchChunk{{User: "occupant", Records: sampleRecords(3)}})
		if err == nil && res[0].Status != http.StatusOK {
			err = fmt.Errorf("occupant: %+v", res[0])
		}
		first <- err
	}()
	<-gp.started
	var ids []string
	for i := 0; i < 2; i++ {
		ids = append(ids, uploadAsync(t, c, trace.New(fmt.Sprintf("queued-%d", i), sampleRecords(3))).ID)
	}

	close(gp.gate)
	if err := srv.Close(); err != nil { // blocks until the queue is drained
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		j, ok := srv.jobs.get(id)
		if !ok || j.State != JobDone {
			t.Fatalf("job %s = %+v after Close", id, j)
		}
	}
	// Uploads after Close are refused, not silently dropped.
	if res := upload(t, c, trace.New("late", sampleRecords(3))); res.Status != http.StatusServiceUnavailable {
		t.Fatalf("post-close upload = %+v, want 503", res)
	}
}

// TestPoolCloseRacesBlockedEnqueuers: Close while chunks block for a
// queue slot. Close closes the queue under the pool's write lock, so no
// chunk sends on it closed: each one either ran and was acknowledged or
// was refused queue_full, and none is lost.
func TestPoolCloseRacesBlockedEnqueuers(t *testing.T) {
	const n = 32
	gp := &gatedProtector{started: make(chan string, n), gate: make(chan struct{})}
	srv, err := New(gp, WithWorkers(1), WithQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	h := srv.Handler()
	bodies := make([]string, n)
	for i := range bodies {
		bodies[i] = batchBody(t, []BatchChunk{{User: fmt.Sprintf("u%02d", i), Records: sampleRecords(3)}})
	}
	lines := make(chan string, n)
	for _, body := range bodies {
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/traces", strings.NewReader(body)))
			lines <- rec.Body.String()
		}()
	}
	// The worker holds one chunk and the queue another; the rest block
	// in enqueueWait, or are about to.
	<-gp.started
	for len(srv.pool.queue) < cap(srv.pool.queue) {
		time.Sleep(time.Millisecond)
	}
	// Release the protector once Close has begun: chunks still outside
	// enqueueWait then race Close for the pool's lock, and either side
	// of it is a valid outcome for them.
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	for !srv.closed.Load() {
		time.Sleep(time.Millisecond)
	}
	close(gp.gate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}

	acked, refused := 0, 0
	for i := 0; i < n; i++ {
		var res BatchResult
		line := <-lines
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("result %q: %v", line, err)
		}
		switch {
		case res.Status == http.StatusOK && res.Result != nil:
			acked++
		case res.Status == http.StatusServiceUnavailable && res.Code == CodeQueueFull:
			refused++
		default:
			t.Fatalf("chunk %s: %+v", res.User, res)
		}
	}
	if ran := 1 + len(gp.started); ran != acked {
		t.Fatalf("%d chunks ran, %d acknowledged", ran, acked)
	}
	if st := srv.Stats(); st.Uploads != acked {
		t.Fatalf("%d chunks acknowledged, %d applied", acked, st.Uploads)
	}
	t.Logf("%d acknowledged, %d refused", acked, refused)
}
