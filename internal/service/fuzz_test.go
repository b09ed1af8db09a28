package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"mood/internal/trace"
)

// FuzzUploadV2 throws arbitrary NDJSON streams at the batch endpoint.
// The contract under fuzz:
//
//   - the handler never panics, whatever the stream contains,
//   - a non-empty stream is answered 200 with exactly one result line
//     per non-blank input line, in input order; an empty stream is a
//     400 problem,
//   - every 200 result line obeys the per-chunk conservation law
//     (records_in == accepted + rejected for that chunk),
//   - the server-wide conservation law survives any input mix.
//
// Run the smoke locally with:
//
//	go test -fuzz=FuzzUploadV2 -fuzztime=30s -run='^$' ./internal/service
func FuzzUploadV2(f *testing.F) {
	f.Add([]byte(`{"user":"alice","records":[{"lat":45,"lon":4,"ts":1}]}`+"\n"), "")
	f.Add([]byte(`{"user":"alice","records":[{"lat":45,"lon":4,"ts":1}],"key":"k1"}`+"\n"+
		`{"user":"alice","records":[{"lat":45,"lon":4,"ts":1}],"key":"k1"}`+"\n"), "alice")
	f.Add([]byte(`{"user":"bob","records":[{"lat":45,"lon":4,"ts":1},{"lat":45,"lon":4,"ts":2}],"async":true}`+"\n"), "")
	f.Add([]byte("{nope\n\n"+`{"user":"bad/user","records":[{"lat":45,"lon":4,"ts":1}]}`+"\n"), "")
	f.Add([]byte(`{"user":"boom-x","records":[{"lat":45,"lon":4,"ts":1}]}`+"\n"), "boom-x")
	f.Add([]byte(`{"user":"reject-y","records":[{"lat":45,"lon":4,"ts":1}]}`+"\n"), "other")
	f.Add([]byte(""), "")
	f.Add([]byte("\n\n\n"), "")
	f.Add([]byte(`{"user":"a","records":[]}`), "a")
	f.Add([]byte(repeatedRecordsLine+"\n"), "u")

	srv, err := New(&fakeProtector{}, WithWorkers(2), WithQueueDepth(16), WithRequestTimeout(-1))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, stream []byte, hdrUser string) {
		// The fast line parser must agree with the generic decoder on
		// every line it accepts — same chunk, field for field.
		for _, ln := range bytes.Split(stream, []byte("\n")) {
			if len(bytes.TrimSpace(ln)) == 0 {
				continue
			}
			fast, ok := parseBatchChunkFast(ln)
			if !ok {
				continue
			}
			var generic BatchChunk
			if err := json.Unmarshal(ln, &generic); err != nil {
				t.Fatalf("fast parser accepted %q but the generic decoder errors: %v", ln, err)
			}
			if fast.User != generic.User || fast.Key != generic.Key || fast.Async != generic.Async ||
				len(fast.Records) != len(generic.Records) {
				t.Fatalf("fast parse of %q = %+v, generic = %+v", ln, fast, generic)
			}
			for i := range fast.Records {
				if fast.Records[i] != generic.Records[i] {
					t.Fatalf("fast parse of %q: record %d = %+v, generic %+v", ln, i, fast.Records[i], generic.Records[i])
				}
			}
		}

		req := httptest.NewRequest(http.MethodPost, "/v2/traces", bytes.NewReader(stream))
		req.Header.Set("Content-Type", NDJSONContentType)
		if hdrUser != "" && utf8.ValidString(hdrUser) && !strings.ContainsAny(hdrUser, "\r\n\x00") {
			req.Header.Set(UserHeader, hdrUser)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)

		// Count the non-blank input lines the server should answer.
		wantLines := 0
		for _, ln := range bytes.Split(stream, []byte("\n")) {
			if len(bytes.TrimSpace(ln)) > 0 {
				wantLines++
			}
		}

		switch rec.Code {
		case http.StatusBadRequest:
			if wantLines != 0 {
				t.Fatalf("non-empty stream (%d lines) answered request-level 400: %q", wantLines, rec.Body.String())
			}
		case http.StatusOK:
			dec := json.NewDecoder(rec.Body)
			got := 0
			for dec.More() {
				var res BatchResult
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("undecodable result line %d: %v", got, err)
				}
				if res.Index != got {
					t.Fatalf("result %d carries index %d: order broken", got, res.Index)
				}
				if res.Status == http.StatusOK {
					if res.Result == nil {
						t.Fatalf("200 line without result: %+v", res)
					}
					// Per-chunk conservation: the input line parses (the
					// server accepted it), so recount its records.
					var c BatchChunk
					if err := json.Unmarshal(nthLine(stream, got), &c); err != nil {
						t.Fatalf("server accepted an unparseable line %d: %v", got, err)
					}
					if res.Result.Accepted+res.Result.Rejected != len(c.Records) {
						t.Fatalf("chunk %d conservation: %d + %d != %d records",
							got, res.Result.Accepted, res.Result.Rejected, len(c.Records))
					}
				}
				got++
			}
			if got != wantLines {
				t.Fatalf("%d result lines for %d input lines", got, wantLines)
			}
		default:
			t.Fatalf("undocumented request-level status %d: %q", rec.Code, rec.Body.String())
		}

		st := srv.Stats()
		if st.RecordsIn != st.RecordsPublished+st.RecordsRejected {
			t.Fatalf("conservation broken: %+v", st)
		}
	})
}

// repeatedRecordsLine names its records twice: encoding/json decodes
// the second array into the first, record by record, so the chunk is
// [{5 2 3}], not the second array alone.
const repeatedRecordsLine = `{"user":"u","records":[{"lat":1,"lon":2,"ts":3}],"records":[{"lat":5}]}`

// TestBatchChunkFastParseMatchesGeneric holds the fast parser to the
// generic decoder on lines that repeat a key.
func TestBatchChunkFastParseMatchesGeneric(t *testing.T) {
	for _, line := range []string{
		repeatedRecordsLine,
		`{"user":"a","user":"b","records":[{"lat":1,"lon":2,"ts":3}]}`,
		`{"user":"u","records":[{"lat":1,"lon":2,"ts":3}],"async":true,"async":false}`,
	} {
		var generic BatchChunk
		if err := json.Unmarshal([]byte(line), &generic); err != nil {
			t.Fatal(err)
		}
		if fast, ok := parseBatchChunkFast([]byte(line)); ok && !reflect.DeepEqual(fast, generic) {
			t.Errorf("fast parse of %s = %+v, generic = %+v", line, fast, generic)
		}
	}
}

// TestBatchChunkLineMatchesEncoder pins the client's upload line to
// json.Encoder's, byte for byte.
func TestBatchChunkLineMatchesEncoder(t *testing.T) {
	recs := []trace.Record{{Lat: 45.7, Lon: 4.8, TS: 1000}, {Lat: -1e-9, Lon: 1e21, TS: -1}}
	for _, c := range []BatchChunk{
		{User: "alice", Records: recs},
		{User: "bob", Records: []trace.Record{}, Key: "k-1", Async: true},
		{User: "<q\"uote>&\u2028\xff", Records: recs, Key: "<\n>"},
		{User: "nil-records"},
	} {
		got, err := c.appendLine(nil)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(c); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("chunk line %s, json.Encoder writes %s", got, want.Bytes())
		}
	}
}

// nthLine returns the n-th non-blank line of the stream.
func nthLine(stream []byte, n int) []byte {
	i := 0
	for _, ln := range bytes.Split(stream, []byte("\n")) {
		if len(bytes.TrimSpace(ln)) == 0 {
			continue
		}
		if i == n {
			return ln
		}
		i++
	}
	return nil
}
