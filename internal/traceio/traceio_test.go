package traceio

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mood/internal/geo"
	"mood/internal/trace"
)

var lyon = geo.Point{Lat: 45.7640, Lon: 4.8357}

func sample() trace.Dataset {
	mk := func(user string, n int, start int64) trace.Trace {
		rs := make([]trace.Record, n)
		for i := range rs {
			rs[i] = trace.At(geo.Offset(lyon, float64(i)*25, float64(i)*-10), start+int64(i)*30)
		}
		return trace.New(user, rs)
	}
	return trace.NewDataset("sample", []trace.Trace{
		mk("alice", 10, 1000),
		mk("bob", 7, 2000),
		mk("carol", 1, 3000),
	})
}

func TestCSVRoundTrip(t *testing.T) {
	d := sample()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "sample")
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsEqual(t, d, got)
}

func TestJSONLRoundTrip(t *testing.T) {
	d := sample()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf, "sample")
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsEqual(t, d, got)
}

// TestWriteJSONLMatchesEncoder pins the NDJSON lines — the node's
// dataset page dialect — to json.Encoder's, byte for byte.
func TestWriteJSONLMatchesEncoder(t *testing.T) {
	d := sample()
	d.Traces = append(d.Traces, trace.Trace{User: "<q\"uote>\u2028\xff", Records: []trace.Record{{Lat: -1e-9, Lon: 1e21, TS: -1}}})
	var got, want bytes.Buffer
	if err := WriteJSONL(&got, d); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&want)
	for _, tr := range d.Traces {
		if err := enc.Encode(tr); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteJSONL wrote\n%s\njson.Encoder writes\n%s", got.Bytes(), want.Bytes())
	}
}

func TestFileRoundTrips(t *testing.T) {
	d := sample()
	dir := t.TempDir()

	csvPath := filepath.Join(dir, "d.csv")
	if err := SaveCSVFile(csvPath, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSVFile(csvPath, "sample")
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsEqual(t, d, got)

	jsonPath := filepath.Join(dir, "d.jsonl")
	if err := SaveFile(jsonPath, d); err != nil {
		t.Fatal(err)
	}
	assertDatasetsEqual(t, d, loadFile(t, jsonPath))
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"bad header", "who,lat,lon,ts\n"},
		{"bad lat", "user,lat,lon,ts\nu,not-a-number,4.8,100\n"},
		{"bad lon", "user,lat,lon,ts\nu,45.7,nope,100\n"},
		{"bad ts", "user,lat,lon,ts\nu,45.7,4.8,later\n"},
		{"short row", "user,lat,lon,ts\nu,45.7\n"},
		{"empty", ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tt.in), "x"); err == nil {
				t.Fatalf("ReadCSV(%q) succeeded, want error", tt.in)
			}
		})
	}
}

func TestReadCSVUnsortedInputGetsSorted(t *testing.T) {
	in := "user,lat,lon,ts\n" +
		"u,45.7000000,4.8000000,300\n" +
		"u,45.7000000,4.8000000,100\n" +
		"u,45.7000000,4.8000000,200\n"
	d, err := ReadCSV(strings.NewReader(in), "x")
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := d.Trace("u")
	if !ok || tr.Validate() != nil {
		t.Fatal("records must come back sorted")
	}
}

func TestReadJSONLGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json"), "x"); err == nil {
		t.Fatal("garbage JSONL must error")
	}
}

func TestReadJSONLEmpty(t *testing.T) {
	d, err := ReadJSONL(strings.NewReader(""), "empty")
	if err != nil {
		t.Fatal(err)
	}
	if d.NumUsers() != 0 {
		t.Fatalf("NumUsers = %d", d.NumUsers())
	}
}

func TestCSVPrecisionSubMeter(t *testing.T) {
	// 7 decimal places is ~1 cm; a round trip must not move a point more
	// than a few centimeters.
	d := sample()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "sample")
	if err != nil {
		t.Fatal(err)
	}
	orig := d.Traces[0].Records[3].Point()
	back := got.Traces[0].Records[3].Point()
	if dd := geo.Haversine(orig, back); dd > 0.05 {
		t.Fatalf("round trip moved point by %v m", dd)
	}
}

func assertDatasetsEqual(t *testing.T, want, got trace.Dataset) {
	t.Helper()
	if got.NumUsers() != want.NumUsers() {
		t.Fatalf("users: got %d, want %d", got.NumUsers(), want.NumUsers())
	}
	if got.NumRecords() != want.NumRecords() {
		t.Fatalf("records: got %d, want %d", got.NumRecords(), want.NumRecords())
	}
	for i, wt := range want.Traces {
		gt := got.Traces[i]
		if gt.User != wt.User {
			t.Fatalf("trace %d: user %q != %q", i, gt.User, wt.User)
		}
		if gt.Len() != wt.Len() {
			t.Fatalf("trace %d: len %d != %d", i, gt.Len(), wt.Len())
		}
		for j := range wt.Records {
			if gt.Records[j].TS != wt.Records[j].TS {
				t.Fatalf("trace %d record %d: ts %d != %d", i, j, gt.Records[j].TS, wt.Records[j].TS)
			}
			if d := geo.Haversine(gt.Records[j].Point(), wt.Records[j].Point()); d > 0.05 {
				t.Fatalf("trace %d record %d moved %v m", i, j, d)
			}
		}
	}
}

// loadFile reads back a dataset SaveFile wrote to path, choosing the
// format from the extension as SaveFile does.
func loadFile(t *testing.T, path string) trace.Dataset {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		if r, err = gzip.NewReader(f); err != nil {
			t.Fatal(err)
		}
	}
	var d trace.Dataset
	if strings.Contains(path, ".jsonl") {
		d, err = ReadJSONL(r, "sample")
	} else {
		d, err = ReadCSV(r, "sample")
	}
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSaveLoadFileFormats(t *testing.T) {
	d := sample()
	dir := t.TempDir()
	for _, name := range []string{"d.csv", "d.jsonl", "d.csv.gz", "d.jsonl.gz"} {
		name := name
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name)
			if err := SaveFile(path, d); err != nil {
				t.Fatal(err)
			}
			assertDatasetsEqual(t, d, loadFile(t, path))
		})
	}
}

func TestGzipActuallyCompresses(t *testing.T) {
	d := sample()
	dir := t.TempDir()
	plain := filepath.Join(dir, "d.csv")
	zipped := filepath.Join(dir, "d.csv.gz")
	if err := SaveFile(plain, d); err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(zipped, d); err != nil {
		t.Fatal(err)
	}
	ps, err := os.Stat(plain)
	if err != nil {
		t.Fatal(err)
	}
	zs, err := os.Stat(zipped)
	if err != nil {
		t.Fatal(err)
	}
	if zs.Size() >= ps.Size() {
		t.Fatalf("gzip did not shrink: %d >= %d", zs.Size(), ps.Size())
	}
}
