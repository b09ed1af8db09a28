package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mood/internal/clock"
	"mood/internal/trace"
)

func TestChainOrder(t *testing.T) {
	var got []string
	tag := func(name string) middleware {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				got = append(got, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	h := chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = append(got, "handler")
	}), tag("outer"), tag("middle"), tag("inner"))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	want := []string{"outer", "middle", "inner", "handler"}
	if len(got) != len(want) {
		t.Fatalf("calls = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("calls = %v, want %v", got, want)
		}
	}
}

func TestRecoverTurnsPanicInto500(t *testing.T) {
	h := chain(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}), recoverPanics())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v2/stats", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != ProblemContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, ProblemContentType)
	}
}

func TestRecoverPassesAbortHandler(t *testing.T) {
	h := chain(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}), recoverPanics())
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Fatal("ErrAbortHandler must propagate")
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
}

func TestTimeoutMiddleware(t *testing.T) {
	h := chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(5 * time.Second):
		case <-r.Context().Done():
		}
	}), timeout(30*time.Millisecond))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v2/stats", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != ProblemContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, ProblemContentType)
	}
}

func TestRateLimiterBucketBehavior(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	rl := newRateLimiter(1, 2, clk)

	for i := 0; i < 2; i++ {
		if ok, _ := rl.allow("user:alice"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, wait := rl.allow("user:alice")
	if ok {
		t.Fatal("third immediate request must be denied")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("wait = %v", wait)
	}
	// A different user has their own bucket.
	if ok, _ := rl.allow("user:bob"); !ok {
		t.Fatal("distinct user must not share the bucket")
	}
	// Tokens refill with virtual time — no wall-clock wait.
	clk.Advance(1500 * time.Millisecond)
	if ok, _ := rl.allow("user:alice"); !ok {
		t.Fatal("refilled bucket must admit")
	}
}

func TestRateLimit429OnUploads(t *testing.T) {
	srv, err := New(&fakeProtector{}, WithRateLimit(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL)

	tr := trace.New("alice", sampleRecords(3))
	for i := 0; i < 2; i++ {
		mustUpload(t, c, tr)
	}
	resp, err := http.DefaultClient.Do(mustUploadRequest(t, hs.URL, "alice"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q", resp.Header.Get("Retry-After"))
	}

	// Another user is unaffected: limiting is per user, not global.
	mustUpload(t, c, trace.New("bob", sampleRecords(3)))
	// The probe endpoints stay exempt.
	for _, path := range []string{"/healthz", "/v2/metrics"} {
		for i := 0; i < 5; i++ {
			r, err := http.Get(hs.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				t.Fatalf("%s = %d under rate limit", path, r.StatusCode)
			}
		}
	}
}

// mustUploadRequest builds a one-chunk batch request tagged with the
// user's rate-limit header.
func mustUploadRequest(t *testing.T, base, user string) *http.Request {
	t.Helper()
	body := fmt.Sprintf(`{"user":%q,"records":[{"lat":45,"lon":4,"ts":1}]}`+"\n", user)
	req, err := http.NewRequest(http.MethodPost, base+"/v2/traces", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", NDJSONContentType)
	req.Header.Set(UserHeader, user)
	return req
}

func TestMetricsEndpoint(t *testing.T) {
	_, hs := newTestServer(t)
	c := NewClient(hs.URL)
	mustUpload(t, c, trace.New("alice", sampleRecords(3)))
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	// A 404 must be counted under the collapsed route.
	resp, err := http.Get(hs.URL + "/v2/users/nobody")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	up, ok := snap.Routes["POST /v2/traces"]
	if !ok || up.Count != 1 {
		t.Fatalf("upload metrics = %+v (routes %v)", up, snap.Routes)
	}
	if up.Status["200"] != 1 {
		t.Fatalf("upload status counts = %v", up.Status)
	}
	if up.AvgMillis < 0 || up.MaxMillis < up.AvgMillis {
		t.Fatalf("latency accounting broken: %+v", up)
	}
	users, ok := snap.Routes["GET /v2/users/{id}"]
	if !ok || users.Status["404"] != 1 {
		t.Fatalf("user route metrics = %+v", users)
	}
	// The label comes from the route table.
	if _, ok := snap.Routes["GET /v2/stats"]; !ok {
		t.Fatalf("stats route missing: %v", snap.Routes)
	}
}

func TestLimiterSweepsIdleBuckets(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	rl := newRateLimiter(1, 2, clk)
	for i := 0; i <= limiterSweepSize; i++ {
		rl.allow(fmt.Sprintf("user:u%d", i))
	}
	if len(rl.buckets) <= limiterSweepSize {
		t.Fatalf("precondition: buckets = %d", len(rl.buckets))
	}
	// After the refill horizon every bucket is idle-full and sweepable.
	clk.Advance(time.Minute)
	rl.allow("user:fresh")
	if got := len(rl.buckets); got != 1 {
		t.Fatalf("buckets after sweep = %d, want 1", got)
	}
}

// TestMetricsRecordClientVisibleStatus pins the chain order: timeout
// 503s, rate-limit 429s and recovered-panic 500s must appear in
// /v2/metrics with the status the client actually received.
func TestMetricsRecordClientVisibleStatus(t *testing.T) {
	block := make(chan struct{})
	rt := RetrainerFunc(func([]trace.Trace) (Protector, Auditor, error) {
		<-block
		return &fakeProtector{}, nil, nil
	})
	srv, err := New(&fakeProtector{}, WithRetrainer(rt, 0),
		WithRequestTimeout(50*time.Millisecond), WithRateLimit(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	// The first pass times out (the retrainer is blocked)...
	resp, err := http.Post(hs.URL+"/v2/admin/retrain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out retrain = %d, want 503", resp.StatusCode)
	}
	assertProblem(t, resp, CodeTimeout)
	resp.Body.Close()
	// ...the second is throttled (burst 1 was spent above).
	resp, err = http.Post(hs.URL+"/v2/admin/retrain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("throttled retrain = %d, want 429", resp.StatusCode)
	}
	close(block) // let the pass finish before asserting

	snap := srv.metrics.Snapshot()
	rm := snap.Routes["POST /v2/admin/retrain"]
	if rm.Status["503"] != 1 || rm.Status["429"] != 1 {
		t.Fatalf("retrain status counts = %v, want one 503 and one 429", rm.Status)
	}
}

func TestUploadRejectsMismatchedUserHeader(t *testing.T) {
	srv, hs := newTestServer(t)
	_, results := postNDJSON(t, hs.URL, batchLine(t, keyed("alice", "", 1)), map[string]string{UserHeader: "mallory"})
	if len(results) != 1 || results[0].Status != http.StatusBadRequest || results[0].Code != CodeUserMismatch {
		t.Fatalf("mismatched header = %+v, want 400 %s", results, CodeUserMismatch)
	}
	if st := srv.Stats(); st.Uploads != 0 {
		t.Fatalf("mismatched chunk committed: %+v", st)
	}
}

func TestMetricsConcurrentObserve(t *testing.T) {
	m := newRequestMetrics(clock.System())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.observe("GET /v2/stats", 200, time.Millisecond)
			}
		}()
	}
	wg.Wait()
	snap := m.Snapshot()
	if got := snap.Routes["GET /v2/stats"].Count; got != 800 {
		t.Fatalf("count = %d, want 800", got)
	}
}

// TestAuthRunsBeforeRateLimit pins the chain order: unauthenticated
// requests naming a victim in X-Mood-User must get 401 without draining
// the victim's token bucket.
func TestAuthRunsBeforeRateLimit(t *testing.T) {
	srv, err := New(&fakeProtector{}, WithAuthToken("sesame"), WithRateLimit(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	// Tokenless junk naming the victim: all 401, no bucket spend.
	for i := 0; i < 10; i++ {
		resp, err := http.DefaultClient.Do(mustUploadRequest(t, hs.URL, "victim"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("tokenless upload = %d, want 401", resp.StatusCode)
		}
	}
	// The victim's own burst is intact.
	c := NewClient(hs.URL).SetAuthToken("sesame")
	for i := 0; i < 2; i++ {
		if _, err := c.UploadBatch([]BatchChunk{keyed("victim", "", 3)}); err != nil {
			t.Fatalf("victim upload %d throttled after attacker junk: %v", i, err)
		}
	}
}

// TestMetricRouteCardinalityBounded pins the DoS fix: unknown paths and
// methods collapse instead of minting one metrics entry per request.
func TestMetricRouteCardinalityBounded(t *testing.T) {
	_, hs := newTestServer(t)
	for i := 0; i < 5; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/x-%d", hs.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	req, _ := http.NewRequest("WEIRD", hs.URL+"/y", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	snap, err := NewClient(hs.URL).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	other, ok := snap.Routes["GET other"]
	if !ok || other.Count != 5 {
		t.Fatalf("GET other = %+v (routes %v)", other, snap.Routes)
	}
	if weird := snap.Routes["OTHER other"]; weird.Count != 1 {
		t.Fatalf("OTHER other = %+v", weird)
	}
	for route := range snap.Routes {
		if strings.Contains(route, "/x-") {
			t.Fatalf("unbounded route recorded: %q", route)
		}
	}
}

func TestAuthInChain(t *testing.T) {
	srv, err := New(&fakeProtector{}, WithAuthToken("sesame"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	if _, err := NewClient(hs.URL).UploadBatch([]BatchChunk{keyed("alice", "", 3)}); err == nil {
		t.Fatal("unauthenticated upload must fail")
	}
	mustUpload(t, NewClient(hs.URL).SetAuthToken("sesame"), trace.New("alice", sampleRecords(3)))
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz behind auth = %d", resp.StatusCode)
	}
}
