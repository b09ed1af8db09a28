package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"
)

// TestRecordMarshalMatchesGeneric pins AppendRecordsJSON to the
// generic encoder's bytes: snapshots, golden fixtures and every wire
// payload depend on the format not moving.
func TestRecordMarshalMatchesGeneric(t *testing.T) {
	cases := []Record{
		{},
		{Lat: 45.7, Lon: 4.8, TS: 1000},
		{Lat: -45.5, Lon: -4.25, TS: -1},
		{Lat: 0.1 + 0.2, Lon: 1.0 / 3.0, TS: 1 << 62},
		{Lat: 1e-7, Lon: 1e21, TS: 0},
		{Lat: -1e-9, Lon: 2.5e-8, TS: 42},
		{Lat: math.MaxFloat64, Lon: math.SmallestNonzeroFloat64, TS: math.MinInt64},
		{Lat: 90, Lon: -180, TS: 1700000000},
	}
	for _, rec := range cases {
		got, err := AppendRecordsJSON(nil, []Record{rec})
		if err != nil {
			t.Fatalf("%+v: %v", rec, err)
		}
		want, err := json.Marshal([]Record{rec})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%+v: fast marshal %s != generic %s", rec, got, want)
		}
	}

	for _, bad := range [][]Record{{{Lat: math.NaN()}}, {{Lon: math.Inf(1)}}} {
		if _, err := AppendRecordsJSON(nil, bad); err == nil {
			t.Errorf("%+v: NaN/Inf must fail like the generic encoder", bad)
		}
	}
	if out, err := AppendRecordsJSON(nil, nil); err != nil || string(out) != "null" {
		t.Errorf("nil slice: %s, %v (want null)", out, err)
	}
}

// TestRecordsArrayFastPaths pins the slice-level fast paths (the hot
// wire shape) to the generic encoder and decoder.
func TestRecordsArrayFastPaths(t *testing.T) {
	cases := [][]Record{
		nil,
		{},
		{{Lat: 45.7, Lon: 4.8, TS: 1000}},
		{{Lat: 1, Lon: 2, TS: 3}, {Lat: -1e-9, Lon: 1e21, TS: -5}, {}},
	}
	for _, rs := range cases {
		got, err := AppendRecordsJSON(nil, rs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("marshal %v: fast %s != generic %s", rs, got, want)
		}
		if rs == nil {
			continue // null is not a canonical array: the scanner leaves it to encoding/json
		}
		back, ok := scanAll(got)
		if !ok || !sameRecords(back, rs) {
			t.Errorf("round trip %s: scanned %+v (ok %v), want %+v", got, back, ok, rs)
		}
		scanMatchesGeneric(t, string(got))
	}

	// Non-canonical arrays are refused, or read exactly as encoding/json
	// reads them.
	inputs := []string{
		`null`,
		`[{"LAT":1,"lon":2,"ts":3}]`,
		`[{"lat":1,"lon":2,"ts":3},{"lat":+1,"lon":0,"ts":0}]`,
		`[1,2]`,
		`[{"lat":1]`,
		`[{"lat":1},`,
		`  [ { "lat" : 1.5 } , {} ]  `,
	}
	for _, in := range inputs {
		scanMatchesGeneric(t, in)
	}
}

// scanAll reads data with the scanner alone: ok is false unless data is
// one canonical record array and nothing else but whitespace.
func scanAll(data []byte) ([]Record, bool) {
	recs, n, ok := ScanRecords(data)
	return recs, ok && len(bytes.Trim(data[n:], " \t\r\n")) == 0
}

// sameRecords compares records bit for bit, so that a -0 read as 0
// differs.
func sameRecords(a, b []Record) bool {
	return slices.EqualFunc(a, b, func(x, y Record) bool {
		return math.Float64bits(x.Lat) == math.Float64bits(y.Lat) &&
			math.Float64bits(x.Lon) == math.Float64bits(y.Lon) && x.TS == y.TS
	})
}

// scanMatchesGeneric holds the scanner to encoding/json on data: when
// the scanner accepts it, encoding/json accepts it too and reads the
// same records.
func scanMatchesGeneric(t *testing.T, data string) {
	t.Helper()
	fast, ok := scanAll([]byte(data))
	if !ok {
		return
	}
	var generic []Record
	if err := json.Unmarshal([]byte(data), &generic); err != nil {
		t.Fatalf("%q: the scanner accepts what encoding/json refuses: %v", data, err)
	}
	if !sameRecords(fast, generic) {
		t.Fatalf("%q: scanner %+v != generic %+v", data, fast, generic)
	}
}

// TestRecordUnmarshalMatchesGeneric pins the scanner to the generic
// decoder on single-record arrays: it reads the canonical shapes, and
// whatever it accepts it reads as encoding/json does; everything else it
// refuses, for encoding/json to decide.
func TestRecordUnmarshalMatchesGeneric(t *testing.T) {
	inputs := []struct {
		in    string
		scans bool
	}{
		{`{"lat":45.7,"lon":4.8,"ts":1000}`, true},
		{`{"lat":0,"lon":0,"ts":0}`, true},
		{`{"ts":5,"lon":-1,"lat":2}`, true},          // any order
		{`{"lat":1e-7,"lon":-2.5E+3,"ts":-9}`, true}, // exponents
		{`{"lat":-0,"lon":-0.0,"ts":-0}`, true},      // negative zeros
		{`{"lat":1,"lon":2,"ts":3,"lat":9}`, false},  // duplicate key, last wins
		{`{}`, true}, // missing keys read as zero
		{` { "lat" : 1 , "lon" : 2 , "ts" : 3 } `, true}, // whitespace
		{`{"LAT":1,"lon":2,"ts":3}`, false},              // case folding
		{`{"lat":1,"lon":2,"ts":3,"extra":"x"}`, false},  // unknown key
		{`{"lat":"1","lon":2,"ts":3}`, false},            // string where number expected
		{`{"lat":+1,"lon":2,"ts":3}`, false},             // invalid JSON number
		{`{"lat":01,"lon":2,"ts":3}`, false},             // leading zero
		{`{"lat":.5,"lon":2,"ts":3}`, false},             // bare fraction
		{`{"lat":1,"lon":2,"ts":1.5}`, false},            // float into int64
		{`{"lat":1,"lon":2,"ts":1e2}`, false},            // exponent into int64
		{`{"lat":null,"lon":2,"ts":3}`, false},           // null
		{`{"lat":1`, false},                              // truncated
		{`[1,2,3]`, false},
		{`"not an object"`, false},
	}
	for _, c := range inputs {
		arr := "[" + c.in + "]"
		if _, ok := scanAll([]byte(arr)); ok != c.scans {
			t.Errorf("%s: scanner accepts = %v, want %v", arr, ok, c.scans)
		}
		scanMatchesGeneric(t, arr)
	}
}

// FuzzRecordJSON cross-checks the scanner against the generic decoder
// on arbitrary input, and the encoder against the generic encoder on
// every record the generic decoder reads.
func FuzzRecordJSON(f *testing.F) {
	f.Add(`{"lat":45.7,"lon":4.8,"ts":1000}`)
	f.Add(`{"lat":+1,"lon":.5,"ts":01}`)
	f.Add(`{"LAT":1e-7,"lon":-2.5E+3,"ts":-9,"x":[]}`)
	f.Add(`{"lat":0x1p-2,"lon":1,"ts":1}`)
	f.Fuzz(func(t *testing.T, in string) {
		// The scanner reads records inside an array, the shape it parses.
		scanMatchesGeneric(t, "["+in+"]")
		scanMatchesGeneric(t, "["+in+","+in+"]")

		var rec Record
		if err := json.Unmarshal([]byte(in), &rec); err != nil {
			return
		}
		out, err := AppendRecordsJSON(nil, []Record{rec})
		if err != nil {
			return // NaN/Inf cannot appear from decode; other errors impossible
		}
		genericOut, err := json.Marshal([]Record{rec})
		if err != nil {
			t.Fatalf("generic remarshal: %v", err)
		}
		if !bytes.Equal(out, genericOut) {
			t.Fatalf("%q: fast marshal %s != generic %s", in, out, genericOut)
		}
	})
}
