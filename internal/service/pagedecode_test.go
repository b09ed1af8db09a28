package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"mood/internal/geo"
	"mood/internal/mathx"
	"mood/internal/trace"
)

// checkPageDecodeParity holds decodeDatasetPage to json.Unmarshal: the
// same error (or none), and on success the same value, nil-ness of
// slices included.
func checkPageDecodeParity(t *testing.T, body []byte) (fast bool) {
	t.Helper()
	got, gotErr := decodeDatasetPage(body)
	var want DatasetPage
	wantErr := json.Unmarshal(body, &want)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("decode of %q: error %v, generic decoder says %v", body, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decode of %q:\n got %#v\nwant %#v", body, got, want)
	}
	_, fast = scanDatasetPage(body)
	if fast && wantErr != nil {
		t.Fatalf("fast path accepted %q, which the generic decoder refuses: %v", body, wantErr)
	}
	return fast
}

// pageDecodeSeeds are shapes the decoder must get right: what the
// server emits, and everything near it that must defer to the stdlib.
var pageDecodeSeeds = []string{
	`{"name":"published","traces":[{"user":"pub-000001","records":[{"lat":45.5,"lon":4.25,"ts":1700000000}]}],"next_cursor":"cHViLTAwMDAwMQ","total_users":3}` + "\n",
	`{"name":"published","traces":[],"total_users":0}` + "\n",
	`{"name":"published","traces":[{"user":"a","records":[]},{"user":"b","records":[{"lat":-1e-7,"lon":1e21,"ts":-5}]}],"total_users":2}`,
	` { "total_users" : 7 , "traces" : [ { "records" : [ ] , "user" : "é" } ] , "name" : "" } `,
	`{}`, `{"traces":[{}]}`, `{"traces":null}`, `{"name":null}`, `null`, ``, `[]`, `{"name":"x"} trailing`,
	`{"name":"a\u003cb","traces":[{"user":"q\"uote","records":[]}]}`,
	`{"name":"x","name":"y"}`, `{"traces":[{"user":"a","records":[{"lat":1,"lon":2,"ts":3}]}],"traces":[{"records":[]}]}`,
	`{"traces":[{"user":"a","user":"b","records":[]}]}`,
	`{"traces":[{"user":"a","records":[{"lat":1,"lon":2,"ts":3}],"records":[{"lat":9}]}]}`,
	`{"Name":"x","TRACES":[]}`, `{"extra":1,"name":"x"}`, `{"traces":[{"user":"a","records":[],"extra":true}]}`,
	`{"total_users":-1}`, `{"total_users":01}`, `{"total_users":1.5}`, `{"total_users":1e2}`, `{"total_users":99999999999999999999}`,
	`{"total_users":"3"}`, `{"total_users":123456789}`, `{"total_users":1234567890}`,
	`{"traces":[{"user":"a","records":[{"lat":1,"lon":2,"ts":1.5}]}]}`,
	`{"traces":[{"user":"a","records":[{"lat":"x"}]}]}`,
	`{"traces":[{"user":"a","records":[]},]}`, `{"traces":[{"user":"a","records":[]}`, `{"name":"x",}`,
	"{\"name\":\"ctl\x01\"}", "{\"name\":\"bad\xff\"}",
}

func TestDatasetPageDecodeMatchesGeneric(t *testing.T) {
	for _, seed := range pageDecodeSeeds {
		checkPageDecodeParity(t, []byte(seed))
	}
	// The shape the server writes must take the fast path, or the
	// decoder is dead weight.
	page := benchDatasetPage(3, 4)
	body, err := json.Marshal(page)
	if err != nil {
		t.Fatal(err)
	}
	if !checkPageDecodeParity(t, append(body, '\n')) {
		t.Fatal("a page as the server writes it fell back to the generic decoder")
	}
}

// TestPageWriterMatchesEncoder pins the node's JSON page, encoded
// afresh, to the json.Encoder it replaced, byte for byte.
func TestPageWriterMatchesEncoder(t *testing.T) {
	hostile := benchDatasetPage(2, 1)
	hostile.Name = "<n\"ame>"
	hostile.Traces[0].User = "<q\"uote>&\u2028\xff"
	for _, page := range []DatasetPage{
		benchDatasetPage(3, 4),
		{Name: PublishedDatasetName, Traces: []trace.Trace{}},
		{Name: PublishedDatasetName, Traces: []trace.Trace{{User: "a", Records: trace.Records{}}}, TotalUsers: 1},
		hostile,
	} {
		var got, want bytes.Buffer
		if err := new(dsCacheEntry).appendPage(&got, page, -1, false); err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(&want).Encode(page); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("page %s\njson.Encoder writes %s", got.Bytes(), want.Bytes())
		}
	}
}

// FuzzDatasetPageDecode pins the client's single-pass page decoder to
// encoding/json, value and error parity included.
//
//	go test -fuzz=FuzzDatasetPageDecode -fuzztime=30s -run='^$' ./internal/service
func FuzzDatasetPageDecode(f *testing.F) {
	for _, seed := range pageDecodeSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkPageDecodeParity(t, body)
	})
}

// benchDatasetPage builds a page of the benchmark's shape: traces of
// nrec records under pub-NNNNNN pseudonyms, each a seeded random walk of
// 60 m normal steps from a point 4 km (normal) from Geneva. Its
// coordinates have the digits a published dataset has: about one in
// five needs 17 significant digits.
func benchDatasetPage(traces, nrec int) DatasetPage {
	page := DatasetPage{Name: PublishedDatasetName, NextCursor: "cHViLTAwMDIwMA", TotalUsers: 25 * traces}
	rng := mathx.NewRand(1)
	center := geo.Point{Lat: 46.2044, Lon: 6.1432}
	for i := 0; i < traces; i++ {
		recs := make(trace.Records, nrec)
		p := geo.Offset(center, rng.NormFloat64()*4000, rng.NormFloat64()*4000)
		for j := range recs {
			p = geo.Offset(p, rng.NormFloat64()*60, rng.NormFloat64()*60)
			recs[j] = trace.At(p, int64(1700000000+j*60))
		}
		page.Traces = append(page.Traces, trace.Trace{User: fmt.Sprintf("pub-%06d", i+1), Records: recs})
	}
	return page
}

var sinkPage DatasetPage

// BenchmarkClientDatasetPageDecode decodes one 200-trace × 50-record
// page (the read-dataset-cluster op) with the client's decoder and, for
// the record, with the three-pass stdlib path it replaced.
func BenchmarkClientDatasetPageDecode(b *testing.B) {
	body, err := json.Marshal(benchDatasetPage(200, 50))
	if err != nil {
		b.Fatal(err)
	}
	body = append(body, '\n')
	b.Run("scan", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			page, err := decodeDatasetPage(body)
			if err != nil || len(page.Traces) != 200 {
				b.Fatal("bad decode")
			}
			sinkPage = page
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var page DatasetPage
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&page); err != nil {
				b.Fatal(err)
			}
			sinkPage = page
		}
	})
}
