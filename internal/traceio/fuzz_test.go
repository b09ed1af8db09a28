package traceio

import (
	"bytes"
	"compress/gzip"
	"testing"

	"mood/internal/synth"
)

// FuzzTraceIO feeds arbitrary bytes to every decode path of the
// interchange layer: CSV, JSONL and their gzipped variants. The
// contract under fuzz:
//
//   - no decoder panics, whatever the bytes,
//   - anything a decoder accepts is a structurally valid dataset
//     (sorted traces, in-range coordinates),
//   - accepted data round-trips: re-encoding and re-decoding preserves
//     the user and record populations exactly.
//
// Run the smoke locally with:
//
//	go test -fuzz=FuzzTraceIO -fuzztime=30s -run='^$' ./internal/traceio
func FuzzTraceIO(f *testing.F) {
	f.Add([]byte("user,lat,lon,ts\n"))
	f.Add([]byte("user,lat,lon,ts\nalice,45.0000000,4.0000000,1\nalice,45.0000010,4.0000010,61\n"))
	f.Add([]byte("user,lat,lon,ts\n\"a,b\",45,-4,9\n"))
	f.Add([]byte("user,lat,lon,ts\nx,95,4,1\n"))           // out-of-range latitude
	f.Add([]byte("user,lat,lon,ts\nx,NaN,4,1\n"))          // parseable float, invalid point
	f.Add([]byte("user,lat,lon,ts\nx,45,4,2\nx,45,4,1\n")) // unsorted timestamps
	f.Add([]byte(`{"user":"alice","records":[{"lat":45,"lon":4,"ts":1}]}` + "\n"))
	f.Add([]byte(`{"user":"alice","records":null}` + "\n"))
	f.Add([]byte{0x1f, 0x8b}) // truncated gzip magic

	// A real generated dataset in every encoding, gzip included, so the
	// corpus starts from deep valid inputs rather than only hand-rolled
	// ones.
	d := synth.MustGenerate(synth.Config{
		Name: "fuzzseed", Center: synth.MDCLike(synth.ScaleTiny, 1).Center,
		Radius: 2000, NumUsers: 2, Days: 1, Seed: 1,
	})
	var csvBuf, jsonlBuf, gzBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, d); err != nil {
		f.Fatal(err)
	}
	if err := WriteJSONL(&jsonlBuf, d); err != nil {
		f.Fatal(err)
	}
	zw := gzip.NewWriter(&gzBuf)
	if _, err := zw.Write(csvBuf.Bytes()); err != nil {
		f.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(csvBuf.Bytes())
	f.Add(jsonlBuf.Bytes())
	f.Add(gzBuf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		if d, err := ReadCSV(bytes.NewReader(data), "fuzz"); err == nil {
			if err := d.Validate(); err != nil {
				t.Fatalf("ReadCSV accepted an invalid dataset: %v", err)
			}
			var buf bytes.Buffer
			if err := WriteCSV(&buf, d); err != nil {
				t.Fatalf("re-encoding accepted CSV failed: %v", err)
			}
			d2, err := ReadCSV(&buf, "fuzz")
			if err != nil {
				t.Fatalf("round-trip decode failed: %v", err)
			}
			if d2.NumUsers() != d.NumUsers() || d2.NumRecords() != d.NumRecords() {
				t.Fatalf("CSV round-trip changed shape: %d/%d -> %d/%d",
					d.NumUsers(), d.NumRecords(), d2.NumUsers(), d2.NumRecords())
			}
		}
		if d, err := ReadJSONL(bytes.NewReader(data), "fuzz"); err == nil {
			if err := d.Validate(); err != nil {
				t.Fatalf("ReadJSONL accepted an invalid dataset: %v", err)
			}
			var buf bytes.Buffer
			if err := WriteJSONL(&buf, d); err != nil {
				t.Fatalf("re-encoding accepted JSONL failed: %v", err)
			}
			d2, err := ReadJSONL(&buf, "fuzz")
			if err != nil {
				t.Fatalf("round-trip decode failed: %v", err)
			}
			if d2.NumUsers() != d.NumUsers() || d2.NumRecords() != d.NumRecords() {
				t.Fatalf("JSONL round-trip changed shape: %d/%d -> %d/%d",
					d.NumUsers(), d.NumRecords(), d2.NumUsers(), d2.NumRecords())
			}
		}
		// The gzipped container path a .csv.gz file takes.
		if zr, err := gzip.NewReader(bytes.NewReader(data)); err == nil {
			if d, err := ReadCSV(zr, "fuzz"); err == nil {
				if err := d.Validate(); err != nil {
					t.Fatalf("gzip+CSV accepted an invalid dataset: %v", err)
				}
			}
		}
	})
}
