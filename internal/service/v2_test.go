package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mood/internal/store"
	"mood/internal/trace"
	"mood/internal/traceio"
)

// ---------------------------------------------------------------------------
// Batch upload.

func postNDJSON(t *testing.T, url, body string, header map[string]string) (*http.Response, []BatchResult) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v2/traces", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", NDJSONContentType)
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var out []BatchResult
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var res BatchResult
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("decoding result line %d: %v", len(out), err)
		}
		out = append(out, res)
	}
	return resp, out
}

func batchLine(t *testing.T, c BatchChunk) string {
	t.Helper()
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

func TestBatchUploadStreamsPerChunkResults(t *testing.T) {
	srv, hs := newTestServer(t)

	var body strings.Builder
	const n = 20
	for i := 0; i < n; i++ {
		body.WriteString(batchLine(t, BatchChunk{
			User:    fmt.Sprintf("user-%02d", i%5),
			Records: sampleRecords(3 + i%4),
		}))
	}
	resp, results := postNDJSON(t, hs.URL, body.String(), nil)
	if ct := resp.Header.Get("Content-Type"); ct != NDJSONContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, NDJSONContentType)
	}
	if len(results) != n {
		t.Fatalf("got %d result lines, want %d", len(results), n)
	}
	for i, res := range results {
		if res.Index != i {
			t.Fatalf("result %d has index %d: results must stream in input order", i, res.Index)
		}
		if res.Status != http.StatusOK || res.Result == nil {
			t.Fatalf("chunk %d: %+v", i, res)
		}
		if got, want := res.Result.Accepted+res.Result.Rejected, 3+i%4; got != want {
			t.Fatalf("chunk %d conservation: accepted+rejected = %d, want %d", i, got, want)
		}
	}

	st := srv.Stats()
	if st.Uploads != n {
		t.Fatalf("server uploads = %d, want %d", st.Uploads, n)
	}
	if st.RecordsIn != st.RecordsPublished+st.RecordsRejected {
		t.Fatalf("conservation violated: %+v", st)
	}
}

// TestBatchThousandChunksOneConnection pins the acceptance bar for the
// redesign: a 1000-chunk NDJSON batch completes over one connection
// with one result line per chunk, and every record is accounted for.
func TestBatchThousandChunksOneConnection(t *testing.T) {
	srv, err := New(&fakeProtector{}, WithQueueDepth(256))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	var conns atomic.Int64
	tr := &http.Transport{}
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		conns.Add(1)
		return (&net.Dialer{}).DialContext(ctx, network, addr)
	}
	c := NewClient(hs.URL)
	c.HTTPClient = &http.Client{Transport: tr, Timeout: 5 * time.Minute}

	const n = 1000
	chunks := make([]BatchChunk, n)
	records := 0
	for i := range chunks {
		chunks[i] = BatchChunk{User: fmt.Sprintf("user-%03d", i%97), Records: sampleRecords(2 + i%5)}
		records += 2 + i%5
	}
	results, err := c.UploadBatch(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, res := range results {
		if res.Index != i || res.Status != http.StatusOK || res.Result == nil {
			t.Fatalf("chunk %d: %+v", i, res)
		}
		if res.Result.Accepted+res.Result.Rejected != len(chunks[i].Records) {
			t.Fatalf("chunk %d conservation: %+v for %d records", i, res.Result, len(chunks[i].Records))
		}
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("batch used %d connections, want 1", got)
	}
	st := srv.Stats()
	if st.Uploads != n || st.RecordsIn != records {
		t.Fatalf("stats: %+v (want %d uploads, %d records)", st, n, records)
	}
	if st.RecordsIn != st.RecordsPublished+st.RecordsRejected {
		t.Fatalf("conservation violated: %+v", st)
	}
}

func TestBatchMixedValidityAndIdempotency(t *testing.T) {
	srv, hs := newTestServer(t)

	// First batch: the original keyed upload commits. (Chunks within
	// one batch execute concurrently, so same-key ordering is only
	// guaranteed across batches.)
	_, first := postNDJSON(t, hs.URL, batchLine(t, BatchChunk{User: "alice", Records: sampleRecords(4), Key: "k1"}), nil)
	if len(first) != 1 || first[0].Status != http.StatusOK {
		t.Fatalf("seed batch: %+v", first)
	}

	lines := []string{
		"{nope\n",
		batchLine(t, BatchChunk{User: "bad/user", Records: sampleRecords(2)}),
		batchLine(t, BatchChunk{User: "bob", Records: nil}),
		batchLine(t, BatchChunk{User: "alice", Records: sampleRecords(4), Key: "k1"}), // replay
		batchLine(t, BatchChunk{User: "alice", Records: sampleRecords(9), Key: "k1"}), // key reuse, new payload
		batchLine(t, BatchChunk{User: "carol", Records: sampleRecords(2), Key: strings.Repeat("k", 201)}),
	}
	_, results := postNDJSON(t, hs.URL, strings.Join(lines, ""), nil)
	if len(results) != len(lines) {
		t.Fatalf("got %d results, want %d", len(results), len(lines))
	}
	wantCodes := []Code{CodeBadChunk, CodeInvalidUser, CodeEmptyChunk, "", CodeKeyReuse, CodeKeyTooLong}
	for i, want := range wantCodes {
		if results[i].Code != want {
			t.Fatalf("chunk %d: code = %q (%+v), want %q", i, results[i].Code, results[i], want)
		}
	}
	if !results[3].Replay {
		t.Fatalf("chunk 3 should be an idempotent replay: %+v", results[3])
	}
	if !bytesEqualJSON(t, first[0].Result, results[3].Result) {
		t.Fatalf("replay result differs: %+v vs %+v", first[0].Result, results[3].Result)
	}
	if results[4].Status != http.StatusUnprocessableEntity {
		t.Fatalf("key reuse with new payload: status = %d, want 422", results[4].Status)
	}

	// Exactly one alice commit despite three keyed attempts.
	st := srv.Stats()
	if st.Uploads != 1 || st.RecordsIn != 4 {
		t.Fatalf("stats after batch: %+v (want exactly one committed upload of 4 records)", st)
	}
}

func bytesEqualJSON(t *testing.T, a, b any) bool {
	t.Helper()
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ab, bb)
}

func TestBatchAsyncChunks(t *testing.T) {
	_, hs := newTestServer(t)
	c := NewClient(hs.URL)

	results, err := c.UploadBatch([]BatchChunk{
		{User: "alice", Records: sampleRecords(3), Async: true},
		{User: "alice", Records: sampleRecords(5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != http.StatusAccepted || results[0].Job == nil {
		t.Fatalf("async chunk: %+v", results[0])
	}
	if results[1].Status != http.StatusOK {
		t.Fatalf("sync chunk: %+v", results[1])
	}
	j, err := c.WaitJob(results[0].Job.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != JobDone || j.Result == nil || j.Result.Accepted != 3 {
		t.Fatalf("async job outcome: %+v", j)
	}
}

func TestBatchUserHeaderMismatch(t *testing.T) {
	_, hs := newTestServer(t)
	body := batchLine(t, BatchChunk{User: "alice", Records: sampleRecords(2)}) +
		batchLine(t, BatchChunk{User: "mallory", Records: sampleRecords(2)})
	_, results := postNDJSON(t, hs.URL, body, map[string]string{UserHeader: "alice"})
	if results[0].Status != http.StatusOK {
		t.Fatalf("matching chunk rejected: %+v", results[0])
	}
	if results[1].Code != CodeUserMismatch {
		t.Fatalf("mismatched chunk: %+v, want code %q", results[1], CodeUserMismatch)
	}
}

func TestBatchEmptyIsRequestLevelProblem(t *testing.T) {
	_, hs := newTestServer(t)
	for _, body := range []string{"", "\n", "\n\n\n", "  \n\t\n"} {
		resp, _ := postNDJSON(t, hs.URL, body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("batch %q: status = %d, want 400", body, resp.StatusCode)
		}
		assertProblem(t, resp, CodeEmptyBatch)
	}
}

func TestBatchOversizedChunkRejectedIndividually(t *testing.T) {
	srv, hs := newTestServer(t)
	big := `{"user":"alice","records":[` + strings.Repeat(`{"lat":1,"lon":2,"ts":3},`, maxBatchLineBytes/24) + `{"lat":1,"lon":2,"ts":3}]}` + "\n"
	if len(big) <= maxBatchLineBytes {
		t.Fatalf("test line not oversized: %d bytes", len(big))
	}
	body := batchLine(t, BatchChunk{User: "bob", Records: sampleRecords(2)}) +
		big +
		batchLine(t, BatchChunk{User: "carol", Records: sampleRecords(3)})
	_, results := postNDJSON(t, hs.URL, body, nil)
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3 (oversized chunk must not abort the stream): %+v", len(results), results)
	}
	if results[0].Status != http.StatusOK || results[2].Status != http.StatusOK {
		t.Fatalf("neighbouring chunks: %+v", results)
	}
	if results[1].Status != http.StatusRequestEntityTooLarge || results[1].Code != CodeChunkTooLarge {
		t.Fatalf("oversized chunk: %+v, want 413 %s", results[1], CodeChunkTooLarge)
	}
	if st := srv.Stats(); st.Uploads != 2 || st.RecordsIn != 5 {
		t.Fatalf("stats: %+v (want the two sane chunks committed)", st)
	}
}

// assertProblem checks the response is problem+json with the code.
func assertProblem(t *testing.T, resp *http.Response, wantCode Code) Problem {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != ProblemContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, ProblemContentType)
	}
	var p Problem
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatalf("decoding problem: %v", err)
	}
	if p.Code != wantCode {
		t.Fatalf("problem code = %q (%+v), want %q", p.Code, p, wantCode)
	}
	if p.Status != resp.StatusCode {
		t.Fatalf("problem status %d != HTTP status %d", p.Status, resp.StatusCode)
	}
	return p
}

// ---------------------------------------------------------------------------
// Paginated dataset.

// seedDataset uploads n single-fragment users and returns the server.
func seedDataset(t *testing.T, n int) (*Server, *httptest.Server) {
	t.Helper()
	srv, hs := newTestServer(t)
	c := NewClient(hs.URL)
	chunks := make([]BatchChunk, n)
	for i := range chunks {
		chunks[i] = BatchChunk{User: fmt.Sprintf("user-%03d", i), Records: sampleRecords(4)}
	}
	results, err := c.UploadBatch(chunks)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Status != http.StatusOK {
			t.Fatalf("seed chunk failed: %+v", res)
		}
	}
	return srv, hs
}

func TestDatasetPagination(t *testing.T) {
	_, hs := seedDataset(t, 25)
	c := NewClient(hs.URL)

	var all []trace.Trace
	pages := 0
	for page, err := range c.DatasetPages(DatasetQuery{Limit: 10}) {
		if err != nil {
			t.Fatal(err)
		}
		pages++
		if page.TotalUsers != 25 {
			t.Fatalf("page %d: total_users = %d, want 25", pages, page.TotalUsers)
		}
		if len(page.Traces) > 10 {
			t.Fatalf("page %d overflows the limit: %d traces", pages, len(page.Traces))
		}
		all = append(all, page.Traces...)
	}
	if pages != 3 {
		t.Fatalf("paged %d times, want 3 (10+10+5)", pages)
	}
	if len(all) != 25 {
		t.Fatalf("iterator yielded %d traces, want 25", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].User >= all[i].User {
			t.Fatalf("pagination broke the sort at %d: %q >= %q", i, all[i-1].User, all[i].User)
		}
	}

	// The full fetch through pages must equal the whole-corpus view.
	whole, err := c.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if !bytesEqualJSON(t, whole.Traces, all) {
		t.Fatal("paged dataset differs from the whole-corpus view")
	}
}

func TestDatasetFilters(t *testing.T) {
	_, hs := seedDataset(t, 6)
	c := NewClient(hs.URL)

	// Every fragment is published under a fresh pseudonym; pick one.
	first, err := c.DatasetPageV2(DatasetQuery{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Traces) != 1 {
		t.Fatalf("first page: %+v", first)
	}
	pseudo := first.Traces[0].User

	got, err := c.DatasetPageV2(DatasetQuery{User: pseudo})
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalUsers != 1 || len(got.Traces) != 1 || got.Traces[0].User != pseudo {
		t.Fatalf("user filter: %+v", got)
	}

	// sampleRecords stamps ts 1000, 1060, ...; a [1000, 1060) window
	// keeps exactly the first record of every trace.
	windowed, err := c.DatasetPageV2(DatasetQuery{From: 1000, To: 1060, Limit: MaxPageLimit})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range windowed.Traces {
		if tr.Len() != 1 {
			t.Fatalf("window filter kept %d records for %s, want 1", tr.Len(), tr.User)
		}
	}
	if len(windowed.Traces) != 6 {
		t.Fatalf("window filter dropped traces: %d, want 6", len(windowed.Traces))
	}

	// Bad parameters are problem+json.
	resp, err := http.Get(hs.URL + "/v2/dataset?limit=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	assertProblem(t, resp, CodeBadRequest)
	resp2, err := http.Get(hs.URL + "/v2/dataset?cursor=%21%21not-base64")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	assertProblem(t, resp2, CodeBadCursor)
}

func TestDatasetETagRevalidation(t *testing.T) {
	_, hs := seedDataset(t, 3)
	c := NewClient(hs.URL)

	page, err := c.DatasetPageV2(DatasetQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if page.ETag == "" {
		t.Fatal("no ETag on the dataset page")
	}

	again, err := c.DatasetPageV2(DatasetQuery{IfNoneMatch: page.ETag})
	if err != nil {
		t.Fatal(err)
	}
	if !again.NotModified {
		t.Fatalf("unchanged dataset not revalidated: %+v", again)
	}

	// A new upload must change the validator.
	if _, err := c.UploadBatch([]BatchChunk{{User: "newcomer", Records: sampleRecords(3)}}); err != nil {
		t.Fatal(err)
	}
	after, err := c.DatasetPageV2(DatasetQuery{IfNoneMatch: page.ETag})
	if err != nil {
		t.Fatal(err)
	}
	if after.NotModified {
		t.Fatal("ETag did not change after a commit")
	}
	if after.ETag == page.ETag {
		t.Fatalf("ETag unchanged across a commit: %q", after.ETag)
	}
}

func TestDatasetContentNegotiation(t *testing.T) {
	_, hs := seedDataset(t, 4)

	get := func(accept string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, hs.URL+"/v2/dataset?limit=2", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := get("text/csv"); resp.Header.Get("Content-Type") != "text/csv" {
		t.Fatalf("csv negotiation: Content-Type = %q", resp.Header.Get("Content-Type"))
	} else {
		if resp.Header.Get(NextCursorHeader) == "" {
			t.Fatal("csv page did not carry the next cursor header")
		}
		if got := resp.Header.Get(TotalUsersHeader); got != "4" {
			t.Fatalf("csv page: %s = %q, want 4", TotalUsersHeader, got)
		}
		ds, err := traceio.ReadCSV(resp.Body, "page")
		if err != nil {
			t.Fatalf("csv page unparseable: %v", err)
		}
		if ds.NumUsers() != 2 {
			t.Fatalf("csv page has %d users, want 2", ds.NumUsers())
		}
	}
	if resp := get(NDJSONContentType); resp.Header.Get("Content-Type") != NDJSONContentType {
		t.Fatalf("ndjson negotiation: Content-Type = %q", resp.Header.Get("Content-Type"))
	} else if resp.Header.Get(NextCursorHeader) == "" || resp.Header.Get(TotalUsersHeader) != "4" {
		t.Fatalf("ndjson page envelope headers: %s = %q, %s = %q", NextCursorHeader,
			resp.Header.Get(NextCursorHeader), TotalUsersHeader, resp.Header.Get(TotalUsersHeader))
	}
	if resp := get(""); resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("default negotiation: Content-Type = %q", resp.Header.Get("Content-Type"))
	} else if resp.Header.Get(TotalUsersHeader) != "" {
		t.Fatal("json page repeats its envelope in headers")
	}
	// q=0 refuses a media range (RFC 9110 §12.5.1), so the next one wins.
	if resp := get("application/json;q=0, text/csv"); resp.Header.Get("Content-Type") != "text/csv" {
		t.Fatalf("q=0 negotiation: Content-Type = %q, want text/csv", resp.Header.Get("Content-Type"))
	}
	if resp := get("application/xml"); resp.StatusCode != http.StatusNotAcceptable {
		t.Fatalf("unsupported Accept: status = %d, want 406", resp.StatusCode)
	} else {
		assertProblem(t, resp, CodeNotAcceptable)
	}
}

// ---------------------------------------------------------------------------
// Uniform 405 + Allow and HEAD support.

func TestMethodNotAllowedFromRouteTable(t *testing.T) {
	_, hs := newTestServer(t)

	cases := []struct {
		method, path string
		wantAllow    string
	}{
		{"GET", "/v2/traces", "POST"},
		{"DELETE", "/v2/dataset", "GET, HEAD"},
		{"POST", "/v2/stats", "GET, HEAD"},
		{"POST", "/healthz", "GET, HEAD"},
		{"PUT", "/healthz", "GET, HEAD"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, hs.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status = %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.wantAllow {
			t.Fatalf("%s %s: Allow = %q, want %q", c.method, c.path, got, c.wantAllow)
		}
		// Every surface, /healthz included, speaks the one dialect.
		assertProblem(t, resp, CodeMethodNotAllowed)
		resp.Body.Close()
	}
}

func TestHeadOnGetResources(t *testing.T) {
	_, hs := seedDataset(t, 2)
	for _, path := range []string{"/v2/stats", "/v2/dataset", "/v2/metrics", "/v2/openapi.json", "/healthz"} {
		resp, err := http.Head(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HEAD %s: status = %d, want 200", path, resp.StatusCode)
		}
		if len(body) != 0 {
			t.Fatalf("HEAD %s returned a body (%d bytes)", path, len(body))
		}
	}
}

// ---------------------------------------------------------------------------
// Problem+json coverage of the middleware layers, on known and unknown
// paths alike.

func TestV2ProblemDialect(t *testing.T) {
	t.Run("not_found", func(t *testing.T) {
		_, hs := newTestServer(t)
		resp, err := http.Get(hs.URL + "/v2/users/ghost")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		assertProblem(t, resp, CodeNotFound)
	})

	// The retired /v1 surface is an unknown path like any other, on a
	// cluster node as on a standalone server.
	t.Run("v1_not_found", func(t *testing.T) {
		srv, err := New(&fakeProtector{}, WithNodeID("n00"))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		for _, path := range []string{"/v1/stats", "/v1/upload", "/v1/jobs/"} {
			resp, err := http.Get(hs.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("GET %s: status = %d, want 404", path, resp.StatusCode)
			}
			assertProblem(t, resp, CodeNotFound)
			resp.Body.Close()
		}
	})

	t.Run("unauthorized", func(t *testing.T) {
		srv, err := New(&fakeProtector{}, WithAuthToken("sesame"))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		resp, err := http.Get(hs.URL + "/v2/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		assertProblem(t, resp, CodeUnauthorized)

		// Auth runs before routing can tell a path is unknown.
		unknown, err := http.Get(hs.URL + "/nowhere")
		if err != nil {
			t.Fatal(err)
		}
		defer unknown.Body.Close()
		if unknown.StatusCode != http.StatusUnauthorized {
			t.Fatalf("unknown path: status = %d, want 401", unknown.StatusCode)
		}
		assertProblem(t, unknown, CodeUnauthorized)

		// The OpenAPI document is part of the public contract: no token
		// needed to discover how to talk to the server.
		open, err := http.Get(hs.URL + "/v2/openapi.json")
		if err != nil {
			t.Fatal(err)
		}
		open.Body.Close()
		if open.StatusCode != http.StatusOK {
			t.Fatalf("openapi behind auth: status = %d", open.StatusCode)
		}
	})

	t.Run("rate_limited", func(t *testing.T) {
		srv, err := New(&fakeProtector{}, WithRateLimit(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		// A known route spends the client's one token; the next request
		// is refused whether or not its path exists.
		for i, path := range []string{"/v2/stats", "/v2/stats", "/nowhere"} {
			resp, err := http.Get(hs.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				if resp.StatusCode != http.StatusTooManyRequests {
					t.Fatalf("GET %s: status = %d, want 429", path, resp.StatusCode)
				}
				if resp.Header.Get("Retry-After") == "" {
					t.Fatal("429 without Retry-After")
				}
				assertProblem(t, resp, CodeRateLimited)
			}
			resp.Body.Close()
		}
	})

	t.Run("retrain_unconfigured", func(t *testing.T) {
		_, hs := newTestServer(t)
		resp, err := http.Post(hs.URL+"/v2/admin/retrain", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		assertProblem(t, resp, CodeRetrainMissing)
	})
}

// ---------------------------------------------------------------------------
// Jobs listing and restart persistence.

func TestJobsListAndPersistence(t *testing.T) {
	disk := store.NewMemFS()
	srv, hs := newWALServer(t, disk, &fakeProtector{})
	c := NewClient(hs.URL)

	chunks := []BatchChunk{
		{User: "alice", Records: sampleRecords(3), Async: true},
		{User: "bob", Records: sampleRecords(4), Async: true},
		{User: "boom-carol", Records: sampleRecords(2), Async: true},
	}
	results, err := c.UploadBatch(chunks)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(results))
	for i, res := range results {
		if res.Job == nil {
			t.Fatalf("chunk %d: no job handle: %+v", i, res)
		}
		ids[i] = res.Job.ID
		if _, err := c.WaitJob(res.Job.ID, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	list := listJobs(t, c, "")
	if list.Total != 3 || len(list.Jobs) != 3 {
		t.Fatalf("jobs list: %+v", list)
	}
	failed := listJobs(t, c, "state="+string(JobFailed))
	if failed.Total != 1 || failed.Jobs[0].User != "boom-carol" {
		t.Fatalf("failed filter: %+v", failed)
	}
	alice := listJobs(t, c, "user=alice")
	if alice.Total != 1 || alice.Jobs[0].ID != ids[0] {
		t.Fatalf("user filter: %+v", alice)
	}
	if resp, err := http.Get(hs.URL + "/v2/jobs?state=bogus"); err != nil {
		t.Fatal(err)
	} else {
		defer resp.Body.Close()
		assertProblem(t, resp, CodeBadRequest)
	}

	// Close, recover, and the terminal handles must still answer — the
	// documented "handles are in-memory" caveat is closed.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_, hs2 := newWALServer(t, disk, &fakeProtector{})
	c2 := NewClient(hs2.URL)
	for i, id := range ids {
		j, err := c2.Job(id)
		if err != nil {
			t.Fatalf("job %d after restart: %v", i, err)
		}
		if i < 2 && (j.State != JobDone || j.Result == nil) {
			t.Fatalf("job %d after restart: %+v", i, j)
		}
		if i == 2 && j.State != JobFailed {
			t.Fatalf("failed job after restart: %+v", j)
		}
	}
	list2 := listJobs(t, c2, "state="+string(JobDone))
	if list2.Total != 2 {
		t.Fatalf("done jobs after restart: %+v", list2)
	}
}

// ---------------------------------------------------------------------------
// The served OpenAPI document vs the route table: generated from the
// same rows, pinned against drift from both directions.

func TestOpenAPIMatchesRouteTable(t *testing.T) {
	srv, hs := newTestServer(t)
	c := NewClient(hs.URL)
	resp, err := c.get(hs.URL + "/v2/openapi.json")
	doc, err := readJSON[map[string]any](resp, err, "openapi", "openapi document")
	if err != nil {
		t.Fatal(err)
	}
	if doc["openapi"] == "" || doc["info"] == nil {
		t.Fatalf("not an OpenAPI document: %v", doc)
	}

	served := map[string]bool{}
	paths, ok := doc["paths"].(map[string]any)
	if !ok {
		t.Fatalf("paths missing: %v", doc)
	}
	for path, item := range paths {
		ops, ok := item.(map[string]any)
		if !ok {
			t.Fatalf("path %q: malformed item", path)
		}
		for method := range ops {
			served[strings.ToUpper(method)+" "+path] = true
		}
	}

	declared := map[string]bool{}
	for _, rt := range srv.routes() {
		declared[rt.method+" "+rt.pattern] = true
	}

	for op := range declared {
		if !served[op] {
			t.Errorf("route table entry %q missing from the served OpenAPI document", op)
		}
	}
	for op := range served {
		if !declared[op] {
			t.Errorf("OpenAPI operation %q has no route table entry", op)
		}
	}

	// One surface: nothing served is deprecated, and every documented
	// error response is a problem document.
	for path, item := range paths {
		for method, op := range item.(map[string]any) {
			op := op.(map[string]any)
			if op["deprecated"] != nil {
				t.Errorf("%s %s is deprecated", method, path)
			}
			for status, resp := range op["responses"].(map[string]any) {
				content, _ := resp.(map[string]any)["content"].(map[string]any)
				if status >= "400" && content[ProblemContentType] == nil {
					t.Errorf("%s %s: %s response is not problem+json: %v", method, path, status, content)
				}
			}
		}
	}
}
