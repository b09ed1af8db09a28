package service

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mood/internal/clock"
	"mood/internal/trace"
)

// sleepRecorder is a clock whose Sleep returns immediately and records
// the requested pauses, proving the backoff runs on the injected clock.
type sleepRecorder struct {
	clock.Clock
	mu     sync.Mutex
	sleeps []time.Duration
}

func newSleepRecorder() *sleepRecorder { return &sleepRecorder{Clock: clock.System()} }

func (s *sleepRecorder) Sleep(d time.Duration) {
	s.mu.Lock()
	s.sleeps = append(s.sleeps, d)
	s.mu.Unlock()
}

func (s *sleepRecorder) recorded() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.sleeps...)
}

// flakyTransport refuses the first n connections at the transport
// level, then delegates to the real transport.
type flakyTransport struct {
	mu       sync.Mutex
	failures int
	calls    int
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.calls++
	fail := f.calls <= f.failures
	f.mu.Unlock()
	if fail {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, &net.OpError{Op: "dial", Err: errors.New("connection refused")}
	}
	return http.DefaultTransport.RoundTrip(req)
}

func (f *flakyTransport) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func retryTestClient(url string, failures int) (*Client, *flakyTransport, *sleepRecorder) {
	ft := &flakyTransport{failures: failures}
	clk := newSleepRecorder()
	c := NewClient(url)
	c.HTTPClient = &http.Client{Transport: ft}
	c.Clock = clk
	return c, ft, clk
}

func TestClientGetRetriesTransportErrors(t *testing.T) {
	_, hs := newTestServer(t)
	c, ft, clk := retryTestClient(hs.URL, 2)
	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats after 2 transient failures: %v", err)
	}
	if got := ft.count(); got != 3 {
		t.Fatalf("transport attempts = %d, want 3", got)
	}
	want := []time.Duration{25 * time.Millisecond, 50 * time.Millisecond}
	got := clk.recorded()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("backoff sleeps = %v, want %v", got, want)
	}
}

func TestClientGetGivesUpAfterCap(t *testing.T) {
	_, hs := newTestServer(t)
	c, ft, _ := retryTestClient(hs.URL, 100)
	if _, err := c.Stats(); err == nil {
		t.Fatal("stats succeeded through a dead transport")
	}
	if got := ft.count(); got != clientRetryAttempts {
		t.Fatalf("transport attempts = %d, want %d", got, clientRetryAttempts)
	}
}

func TestClientRetries502FromIntermediary(t *testing.T) {
	var calls atomic.Int64
	_, hs := newTestServer(t)
	gateway := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "bad gateway", http.StatusBadGateway)
			return
		}
		r2, err := http.NewRequest(r.Method, hs.URL+r.URL.RequestURI(), r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		r2.Header = r.Header.Clone()
		resp, err := http.DefaultTransport.RoundTrip(r2)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		if _, err := io.Copy(w, resp.Body); err != nil {
			return
		}
	}))
	defer gateway.Close()

	c := NewClient(gateway.URL)
	c.Clock = newSleepRecorder()
	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats through a flapping gateway: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("gateway calls = %d, want 3", got)
	}
}

func TestClientDoesNotRetryServiceAnswers(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"slow down"}`, http.StatusTooManyRequests)
	}))
	defer hs.Close()
	c := NewClient(hs.URL)
	c.Clock = newSleepRecorder()
	_, err := c.Stats()
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("want the 429 surfaced, got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server calls = %d, want 1 (429 is a real answer, not a transport failure)", got)
	}
}

func TestKeyedBatchRetriesUnkeyedDoesNot(t *testing.T) {
	recs := []trace.Record{{Lat: 1, Lon: 2, TS: 1700000000}}

	t.Run("keyed", func(t *testing.T) {
		srv, hs := newTestServer(t)
		c, ft, _ := retryTestClient(hs.URL, 2)
		results, err := c.UploadBatch([]BatchChunk{{User: "alice", Records: recs, Key: "k-1"}})
		if err != nil {
			t.Fatalf("keyed batch after transient failures: %v", err)
		}
		if len(results) != 1 || results[0].Status != http.StatusOK {
			t.Fatalf("keyed batch results = %+v", results)
		}
		if got := ft.count(); got != 3 {
			t.Fatalf("transport attempts = %d, want 3", got)
		}
		// The server committed the chunk exactly once.
		st, err := NewClient(hs.URL).Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Uploads != 1 || st.RecordsIn != 1 {
			t.Fatalf("server stats after retried keyed batch = %+v, want one committed chunk", st)
		}
		_ = srv
	})

	t.Run("unkeyed", func(t *testing.T) {
		_, hs := newTestServer(t)
		c, ft, _ := retryTestClient(hs.URL, 1)
		if _, err := c.UploadBatch([]BatchChunk{{User: "bob", Records: recs}}); err == nil {
			t.Fatal("unkeyed batch silently retried through a transport failure")
		}
		if got := ft.count(); got != 1 {
			t.Fatalf("transport attempts = %d, want 1 (an unkeyed batch must never re-send)", got)
		}
	})
}
