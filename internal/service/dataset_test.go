package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"

	"mood/internal/trace"
	"mood/internal/traceio"
)

// publishFrag commits one published fragment through the state
// transition every upload and WAL replay goes through, and returns its
// audit sequence number (what a quarantine removes it by).
func publishFrag(s *Server, tr trace.Trace) int64 {
	seq := s.fragSeq.Add(1)
	s.foldCommit(durable{}, &walUploadCommit{User: "owner-" + tr.User, Frags: []publishedFrag{{Seq: seq, Trace: tr, Owner: "owner-" + tr.User}}})
	return seq
}

// pageTrace is a published trace of n records, one a minute from ts
// 1000 + off, on coordinates that exercise the float formatting.
func pageTrace(user string, n, off int) trace.Trace {
	rs := make([]trace.Record, n)
	for j := range rs {
		rs[j] = trace.Record{
			Lat: 45.7 + float64(off+j)*1.37e-5,
			Lon: 4.8 - float64(off+j)*2.11e-7,
			TS:  int64(1000 + off + j*60),
		}
	}
	return trace.Trace{User: user, Records: rs}
}

// pageOracle is the page the writer must reproduce: paginateDataset's
// cut of a freshly assembled dataset — never the cached one — encoded
// by json.Encoder, traceio.WriteJSONL or traceio.WriteCSV.
func pageOracle(s *Server, q datasetQuery) ([]byte, DatasetPage, error) {
	page, _ := paginateDataset(trace.NewDataset(PublishedDatasetName, s.publishedSnapshot()), q)
	ds := trace.Dataset{Name: page.Name, Traces: page.Traces}
	var b bytes.Buffer
	var err error
	switch q.format {
	case formatNDJSON:
		err = traceio.WriteJSONL(&b, ds)
	case formatCSV:
		err = traceio.WriteCSV(&b, ds)
	default:
		err = json.NewEncoder(&b).Encode(page)
	}
	return b.Bytes(), page, err
}

// servedPageMismatch serves one GET /v2/dataset and holds it to the
// oracle: the same body byte for byte, the envelope headers of the
// line formats, and a Content-Length equal to the body on JSON and
// NDJSON pages. It returns what differs, or nil.
func servedPageMismatch(s *Server, rawQuery, accept string) error {
	req := httptest.NewRequest(http.MethodGet, "/v2/dataset?"+rawQuery, nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	q, code, _ := parseDatasetQuery(req)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	switch {
	case code != "" && rec.Code != http.StatusBadRequest:
		return fmt.Errorf("query %q: status %d, want 400 (%s)", rawQuery, rec.Code, code)
	case code == "" && q.format == "" && rec.Code != http.StatusNotAcceptable:
		return fmt.Errorf("Accept %q: status %d, want 406", accept, rec.Code)
	case code != "" || q.format == "":
		return nil
	}
	want, page, err := pageOracle(s, q)
	h := rec.Header()
	switch {
	case err != nil:
		return err
	case rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want):
		return fmt.Errorf("query %q Accept %q: status %d\n got %q\nwant %q", rawQuery, accept, rec.Code, rec.Body.Bytes(), want)
	case q.format != formatCSV && h.Get("Content-Length") != strconv.Itoa(len(want)):
		return fmt.Errorf("query %q Accept %q: Content-Length %q for a %d-byte body", rawQuery, accept, h.Get("Content-Length"), len(want))
	case q.format != formatJSON && (h.Get(NextCursorHeader) != page.NextCursor || h.Get(TotalUsersHeader) != strconv.Itoa(page.TotalUsers)):
		return fmt.Errorf("query %q Accept %q: envelope headers %q / %q, want %q / %d", rawQuery, accept,
			h.Get(NextCursorHeader), h.Get(TotalUsersHeader), page.NextCursor, page.TotalUsers)
	}
	return nil
}

func cursorOf(user string) string { return base64.RawURLEncoding.EncodeToString([]byte(user)) }

// TestDatasetPagesMatchEncoder holds every JSON and NDJSON page the
// cached lines are spliced into to the encoder's page, on a fresh
// version and again once its slots are filled, then after a commit and
// after a quarantine — both move traces to other positions, so a slot
// carried into the wrong version or index would show.
func TestDatasetPagesMatchEncoder(t *testing.T) {
	srv, err := New(&fakeProtector{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	seqs := map[string]int64{}
	for i := 1; i <= 12; i++ {
		u := fmt.Sprintf("pub-%06d", 2*i)
		seqs[u] = publishFrag(srv, pageTrace(u, 3+i%4, i))
	}
	queries := []string{
		"",                  // no filter, every trace: fills every slot first
		"user=pub-000008",   // user filter
		"from=1060&to=1180", // time window: rewritten traces
		"cursor=" + cursorOf("pub-000010") + "&limit=4",  // mid-corpus
		"cursor=" + cursorOf("pub-000020") + "&limit=10", // last page
	}
	check := func(stage string) {
		t.Helper()
		for pass := 0; pass < 2; pass++ { // the first pass fills slots, the second reads them
			for _, accept := range []string{"", NDJSONContentType} {
				for _, q := range queries {
					if err := servedPageMismatch(srv, q, accept); err != nil {
						t.Errorf("%s, pass %d: %v", stage, pass, err)
					}
				}
			}
		}
	}
	check("fresh")
	publishFrag(srv, pageTrace("pub-000011", 5, 40))
	check("after commit")
	if n := srv.quarantine(durable{}, []int64{seqs["pub-000012"]}); n != 1 {
		t.Fatalf("quarantined %d fragments, want 1", n)
	}
	check("after quarantine")
}

// TestDatasetPagesConcurrentFill reads overlapping pages of a fresh
// version from 8 goroutines at once: the slots they race to fill must
// serve every reader the encoder's page (run it under -race).
func TestDatasetPagesConcurrentFill(t *testing.T) {
	srv, err := New(&fakeProtector{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 40; i++ {
		publishFrag(srv, pageTrace(fmt.Sprintf("pub-%06d", i), 2+i%5, i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, accept := range []string{"", NDJSONContentType} {
				q := "cursor=" + cursorOf(fmt.Sprintf("pub-%06d", 3*g)) + "&limit=10"
				if err := servedPageMismatch(srv, q, accept); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestDatasetQueryReportsFromFirst: with both bounds malformed, the 400
// names from, every time (the parameters are checked in a fixed order).
func TestDatasetQueryReportsFromFirst(t *testing.T) {
	for i := 0; i < 50; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v2/dataset?from=x&to=y", nil)
		_, code, detail := parseDatasetQuery(req)
		if code != CodeBadRequest || detail != "from must be a unix timestamp in seconds" {
			t.Fatalf("request %d: %s %q, want the from error", i, code, detail)
		}
	}
}

// pageFuzzTraces reads fuzz bytes as published traces: parts split by
// NUL, each a record-count byte (0 mod 4: no records) then the
// pseudonym, which may hold anything the encoder must escape.
func pageFuzzTraces(b []byte) []trace.Trace {
	var out []trace.Trace
	for _, part := range bytes.Split(b, []byte{0}) {
		if len(part) == 0 {
			continue
		}
		tr := pageTrace(string(part[1:]), int(part[0]%4), int(part[0]))
		if part[0]%8 == 4 {
			tr.Records = nil
		}
		out = append(out, tr)
	}
	return out
}

// FuzzDatasetPageServe serves fuzzed corpora and queries and holds every
// page, read before and after an optional commit, to the encoder's page
// (TestDatasetPagesMatchEncoder's oracle).
//
//	go test -fuzz=FuzzDatasetPageServe -fuzztime=30s -run='^$' ./internal/service
func FuzzDatasetPageServe(f *testing.F) {
	hostile := []byte("\x03q\"uote\x00\x02back\\slash\x00\x01<a>&b\x00\x05line\u2028sep\x00\x06bad\xff\x00\x04empty\x00\x08none")
	f.Add(hostile, "", uint8(99), "", int64(0), int64(0), uint8(0), []byte(nil))
	f.Add(hostile, "back\\slash", uint8(1), "", int64(0), int64(0), uint8(1), []byte("\x02a\x00\x03zz"))
	f.Add(hostile, "", uint8(2), "bad\xff", int64(0), int64(0), uint8(0), []byte("\x01bad\xff"))
	f.Add(hostile, "<a>&b", uint8(3), "", int64(1060), int64(1200), uint8(1), []byte("\x02m"))
	f.Add(hostile, "", uint8(9), "", int64(0), int64(1100), uint8(2), []byte(nil))
	f.Add([]byte("\x03pub-000001\x00\x02pub-000002"), "pub-000001", uint8(0), "", int64(1200), int64(1000), uint8(0), []byte("\x01pub-0000015"))
	f.Fuzz(func(t *testing.T, corpus []byte, cursor string, limit uint8, user string, from, to int64, format uint8, commit []byte) {
		srv, err := New(&fakeProtector{}, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for _, tr := range pageFuzzTraces(corpus) {
			publishFrag(srv, tr)
		}
		v := url.Values{"limit": {strconv.Itoa(int(limit) + 1)}}
		if cursor != "" {
			v.Set("cursor", cursorOf(cursor))
		}
		if user != "" {
			v.Set("user", user)
		}
		if from != 0 {
			v.Set("from", strconv.FormatInt(from, 10))
		}
		if to != 0 {
			v.Set("to", strconv.FormatInt(to, 10))
		}
		accept := [...]string{"", NDJSONContentType, "text/csv"}[format%3]
		if err := servedPageMismatch(srv, v.Encode(), accept); err != nil {
			t.Fatal(err)
		}
		if len(commit) > 0 {
			for _, tr := range pageFuzzTraces(commit) {
				publishFrag(srv, tr)
			}
			if err := servedPageMismatch(srv, v.Encode(), accept); err != nil {
				t.Fatalf("after a commit: %v", err)
			}
		}
	})
}
