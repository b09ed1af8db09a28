package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mood/internal/attack"
	"mood/internal/core"
	"mood/internal/geo"
	"mood/internal/lppm"
	"mood/internal/synth"
	"mood/internal/trace"
	"mood/internal/traceio"
)

// fakeProtector protects everything by echoing the trace under a fixed
// pseudonym, or rejects users named "reject-*".
type fakeProtector struct {
	mu    sync.Mutex
	calls int
}

func (f *fakeProtector) Protect(t trace.Trace) (core.Result, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	if strings.HasPrefix(t.User, "reject-") {
		return core.Result{User: t.User, TotalRecords: t.Len(), LostRecords: t.Len()}, nil
	}
	if strings.HasPrefix(t.User, "boom-") {
		return core.Result{}, fmt.Errorf("engine exploded")
	}
	return core.Result{
		User:         t.User,
		TotalRecords: t.Len(),
		Pieces: []core.Piece{{
			Trace:         t.WithUser(fmt.Sprintf("anon-%d", n)),
			Mechanism:     "fake",
			SourceRecords: t.Len(),
		}},
	}, nil
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(&fakeProtector{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// serverUsers lists the server's known uploader IDs, sorted.
func serverUsers(s *Server) []string {
	var out []string
	for i := range s.shards {
		s.shards[i].locked(func(st *shardState) {
			for u := range st.users {
				out = append(out, u)
			}
		})
	}
	sort.Strings(out)
	return out
}

// listJobs lists the server's jobs through GET /v2/jobs?query.
func listJobs(t *testing.T, c *Client, query string) JobList {
	t.Helper()
	resp, err := c.get(c.BaseURL + "/v2/jobs?" + query)
	list, err := readJSON[JobList](resp, err, "jobs", "jobs")
	if err != nil {
		t.Fatal(err)
	}
	return list
}

// uploadDaily uploads t as daily chunks through one batch request, the
// way the paper's participants upload.
func uploadDaily(c *Client, t trace.Trace) ([]BatchResult, error) {
	var batch []BatchChunk
	for _, ch := range t.Chunks(24 * time.Hour) {
		batch = append(batch, BatchChunk{User: ch.User, Records: ch.Records})
	}
	return c.UploadBatch(batch)
}

func sampleRecords(n int) []trace.Record {
	base := geo.Point{Lat: 45.7, Lon: 4.8}
	rs := make([]trace.Record, n)
	for i := range rs {
		rs[i] = trace.At(geo.Offset(base, float64(i)*10, 0), int64(1000+i*60))
	}
	return rs
}

// keyed is the chunk of n sample records user uploads under the
// idempotency key ("" for none).
func keyed(user, key string, n int) BatchChunk {
	return BatchChunk{User: user, Records: sampleRecords(n), Key: key}
}

// postChunk uploads one chunk as a batch of one over POST /v2/traces and
// returns its result line.
func postChunk(t *testing.T, url string, c BatchChunk) BatchResult {
	t.Helper()
	resp, results := postNDJSON(t, url, batchLine(t, c), nil)
	if resp.StatusCode != http.StatusOK || len(results) != 1 {
		t.Fatalf("batch of one: status %d, %d result lines", resp.StatusCode, len(results))
	}
	return results[0]
}

// upload sends tr as a batch of one through the typed client and
// returns the chunk's result line.
func upload(t *testing.T, c *Client, tr trace.Trace) BatchResult {
	t.Helper()
	res, err := c.UploadBatch([]BatchChunk{{User: tr.User, Records: tr.Records}})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// mustUpload is upload for a chunk that must be protected and committed.
func mustUpload(t *testing.T, c *Client, tr trace.Trace) UploadResponse {
	t.Helper()
	res := upload(t, c, tr)
	if res.Status != http.StatusOK || res.Result == nil {
		t.Fatalf("upload %s: %+v", tr.User, res)
	}
	return *res.Result
}

func TestUploadAndDataset(t *testing.T) {
	_, hs := newTestServer(t)
	c := NewClient(hs.URL)

	resp := mustUpload(t, c, trace.New("alice", sampleRecords(10)))
	if resp.Accepted != 10 || resp.Rejected != 0 || resp.Pieces != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Mechanisms[0] != "fake" {
		t.Fatalf("mechanisms = %v", resp.Mechanisms)
	}

	d, err := c.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if d.NumUsers() != 1 || d.NumRecords() != 10 {
		t.Fatalf("dataset = %v", d)
	}
	if d.Traces[0].User == "alice" {
		t.Fatal("published dataset must not contain the raw user ID")
	}
}

func TestUploadRejectionAccounting(t *testing.T) {
	srv, hs := newTestServer(t)
	c := NewClient(hs.URL)

	mustUpload(t, c, trace.New("reject-bob", sampleRecords(7)))
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.RecordsRejected != 7 || st.RecordsPublished != 0 {
		t.Fatalf("stats = %+v", st)
	}
	us, err := c.UserStats("reject-bob")
	if err != nil {
		t.Fatal(err)
	}
	if us.RecordsRejected != 7 || us.Pieces != 0 {
		t.Fatalf("user stats = %+v", us)
	}
	if got := srv.Stats(); got != st {
		t.Fatalf("server stats %+v != client stats %+v", got, st)
	}
}

func TestUploadValidation(t *testing.T) {
	_, hs := newTestServer(t)

	tests := []struct {
		name   string
		line   string
		status int
		code   Code
	}{
		{"garbage", "{nope", http.StatusBadRequest, CodeBadChunk},
		{"missing user", `{"records":[{"lat":45,"lon":4,"ts":1}]}`, http.StatusBadRequest, CodeInvalidUser},
		{"no records", `{"user":"x","records":[]}`, http.StatusBadRequest, CodeEmptyChunk},
		{"invalid lat", `{"user":"x","records":[{"lat":95,"lon":4,"ts":1}]}`, http.StatusBadRequest, CodeInvalidTrace},
		{"ok", `{"user":"x","records":[{"lat":45,"lon":4,"ts":1}]}`, http.StatusOK, ""},
	}
	for _, tt := range tests {
		_, results := postNDJSON(t, hs.URL, tt.line+"\n", nil)
		if len(results) != 1 || results[0].Status != tt.status || results[0].Code != tt.code {
			t.Errorf("%s: results %+v, want status %d code %q", tt.name, results, tt.status, tt.code)
		}
	}
}

func TestUploadMethodChecks(t *testing.T) {
	_, hs := newTestServer(t)
	resp, err := http.Get(hs.URL + "/v2/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v2/traces = %d", resp.StatusCode)
	}
}

func TestUnknownUser404(t *testing.T) {
	_, hs := newTestServer(t)
	resp, err := http.Get(hs.URL + "/v2/users/nobody")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestProtectorErrorBecomes500(t *testing.T) {
	_, hs := newTestServer(t)
	res := upload(t, NewClient(hs.URL), trace.New("boom-user", sampleRecords(3)))
	if res.Status != http.StatusInternalServerError || res.Code != CodeInternal {
		t.Fatalf("result = %+v, want 500 %s", res, CodeInternal)
	}
}

func TestHealthz(t *testing.T) {
	_, hs := newTestServer(t)
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

func TestConcurrentUploads(t *testing.T) {
	srv, hs := newTestServer(t)
	c := NewClient(hs.URL)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := fmt.Sprintf("user-%d", i)
			res, err := c.UploadBatch([]BatchChunk{{User: u, Records: sampleRecords(5)}})
			if err != nil || res[0].Status != http.StatusOK {
				t.Errorf("upload %s: %v %+v", u, err, res)
			}
		}(i)
	}
	wg.Wait()
	st := srv.Stats()
	if st.Uploads != 16 || st.Users != 16 || st.RecordsPublished != 80 {
		t.Fatalf("stats = %+v", st)
	}
	if got := len(serverUsers(srv)); got != 16 {
		t.Fatalf("users = %d", got)
	}
}

func TestUploadDailyChunksClientSide(t *testing.T) {
	srv, hs := newTestServer(t)
	c := NewClient(hs.URL)
	// A 3-day trace should produce 3 daily uploads.
	rs := make([]trace.Record, 0, 72)
	base := geo.Point{Lat: 45.7, Lon: 4.8}
	for h := 0; h < 72; h++ {
		rs = append(rs, trace.At(base, int64(h)*3600))
	}
	resps, err := uploadDaily(c, trace.New("chunker", rs))
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) < 3 {
		t.Fatalf("daily uploads = %d, want >= 3", len(resps))
	}
	for _, res := range resps {
		if res.Status != http.StatusOK {
			t.Fatalf("daily chunk: %+v", res)
		}
	}
	if srv.Stats().Uploads != len(resps) {
		t.Fatalf("server saw %d uploads, client made %d", srv.Stats().Uploads, len(resps))
	}
}

func TestNewRejectsNilProtector(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil protector must error")
	}
}

// TestEndToEndWithRealEngine wires the real MooD engine behind the
// server: an integration test of the full deployment path.
func TestEndToEndWithRealEngine(t *testing.T) {
	cfg := synth.MDCLike(synth.ScaleTiny, 77)
	cfg.NumUsers = 6
	cfg.Days = 6
	d := synth.MustGenerate(cfg)
	train, test := d.SplitTrainTest(0.5, 20)

	atks := attack.DefaultSet()
	if err := attack.TrainAll(atks, train.Traces); err != nil {
		t.Fatal(err)
	}
	hmc, err := lppm.NewHMC(0, train.Traces)
	if err != nil {
		t.Fatal(err)
	}
	engine := &core.Engine{
		LPPMs:   []lppm.Mechanism{hmc, lppm.NewGeoI(), lppm.NewTRL()},
		Attacks: atks,
		Seed:    77,
	}
	srv, err := New(engine)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := NewClient(hs.URL)

	// One participant uploads their daily chunks.
	victim := test.Traces[0]
	resps, err := uploadDaily(c, victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) == 0 {
		t.Fatal("no daily chunks uploaded")
	}
	for _, res := range resps {
		if res.Status != http.StatusOK {
			t.Fatalf("daily chunk: %+v", res)
		}
	}

	// The published dataset must not re-identify the participant.
	pub, err := c.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range pub.Traces {
		if tr.User == victim.User {
			t.Fatal("published dataset leaks the raw user ID")
		}
		if hit, name := atks.ReIdentifies(tr.WithUser(""), victim.User); hit {
			t.Fatalf("published fragment re-identified by %s", name)
		}
	}
}

func TestDatasetEndpointJSONShape(t *testing.T) {
	_, hs := newTestServer(t)
	mustUpload(t, NewClient(hs.URL), trace.New("alice", sampleRecords(4)))
	resp, err := http.Get(hs.URL + "/v2/dataset")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		Name   string `json:"name"`
		Traces []struct {
			User    string `json:"user"`
			Records []struct {
				Lat float64 `json:"lat"`
				Lon float64 `json:"lon"`
				TS  int64   `json:"ts"`
			} `json:"records"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.Name != "published" || len(payload.Traces) != 1 {
		t.Fatalf("payload = %+v", payload)
	}
	if len(payload.Traces[0].Records) != 4 {
		t.Fatalf("records = %d", len(payload.Traces[0].Records))
	}
}

func TestDatasetCSVEndpoint(t *testing.T) {
	_, hs := newTestServer(t)
	mustUpload(t, NewClient(hs.URL), trace.New("alice", sampleRecords(6)))
	req, err := http.NewRequest(http.MethodGet, hs.URL+"/v2/dataset", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/csv")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("content type = %q", ct)
	}
	d, err := traceio.ReadCSV(resp.Body, "published")
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRecords() != 6 {
		t.Fatalf("records = %d", d.NumRecords())
	}
}
