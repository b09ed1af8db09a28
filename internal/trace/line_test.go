package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"unicode/utf8"
)

// lineUsers are users the line codec must get right: plain pseudonyms,
// everything encoding/json escapes (quotes, backslashes, controls,
// <, > and &, U+2028/9) and invalid UTF-8, which it replaces.
var lineUsers = []string{
	"pub-000001", "", "é-accent", "日本", `q"uote`, `back\slash`, `<tag>&amp;`, "new\nline", "tab\t",
	"\b\f\r\x00\x1f\x7f", "line\u2028sep\u2029", "bad\xffutf8", "\xe6\x97", "emoji \U0001F600", `"`, `\`, "a\\\"",
}

// lineTraces pairs every line user with records that cover the float
// formats (both exponent forms, negative zero) and the empty array.
func lineTraces() []Trace {
	recs := [][]Record{
		{},
		{{Lat: 45.7, Lon: 4.8, TS: 1000}},
		{{Lat: -1e-9, Lon: 1e21, TS: -5}, {Lat: math.Copysign(0, -1), Lon: 0.1 + 0.2, TS: math.MaxInt64}},
	}
	var out []Trace
	for i, u := range lineUsers {
		out = append(out, Trace{User: u, Records: recs[i%len(recs)]})
	}
	return out
}

// TestAppendTraceJSONMatchesMarshal pins the trace line to encoding/json:
// the encoder's bytes, the scanner's trace and LineKey's user.
func TestAppendTraceJSONMatchesMarshal(t *testing.T) {
	for _, tr := range lineTraces() {
		checkLine(t, tr)
	}
	if _, err := AppendTraceJSON(nil, Trace{User: "u", Records: []Record{{Lat: math.NaN()}}}); err == nil {
		t.Error("NaN must fail like the generic encoder")
	}
}

// checkLine holds one trace's line to encoding/json.
func checkLine(t *testing.T, tr Trace) {
	t.Helper()
	got, err := AppendTraceJSON(nil, tr)
	if err != nil {
		t.Fatalf("%q: %v", tr.User, err)
	}
	want, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendTraceJSON = %s\njson.Marshal = %s", got, want)
	}
	var decoded Trace
	if err := json.Unmarshal(got, &decoded); err != nil {
		t.Fatalf("%s: %v", got, err)
	}
	if key, ok := LineKey(got); !ok || string(key) != decoded.User {
		t.Fatalf("LineKey(%s) = %q, %v; json.Unmarshal says %q", got, key, ok, decoded.User)
	}
	s := NewScanner(got)
	scanned, ok := s.parseTrace()
	if canonical(tr.User) && !ok {
		t.Fatalf("parseTrace refused %s, which needs no escape", got)
	}
	if ok && (s.i != len(got) || !reflect.DeepEqual(scanned, decoded)) {
		t.Fatalf("parseTrace(%s) = %+v after %d bytes; json.Unmarshal says %+v", got, scanned, s.i, decoded)
	}
}

// canonical reports whether the encoder writes s without an escape.
func canonical(s string) bool {
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		if r < 0x20 || r == '"' || r == '\\' || r == '<' || r == '>' || r == '&' || r == '\u2028' || r == '\u2029' {
			return false
		}
	}
	return true
}

func TestLineKey(t *testing.T) {
	for _, bad := range []string{
		``, `{}`, `{"user":"a"}`, `{"user":"a","records":[]`, `{"user":"a\","records":[]}`, `{"user":"a\q","records":[]}`,
		`{"user":a,"records":[]}`, `{"user":"a", "records":[]}`, `{"records":[],"user":"a"}`, `{"user":"a","records":[]} `,
		`{"user":"a","records":null}`,
	} {
		if key, ok := LineKey([]byte(bad)); ok {
			t.Fatalf("LineKey(%s) accepted the line (key %q)", bad, key)
		}
	}
}

// FuzzLineRoundTrip holds the line codec to encoding/json on arbitrary
// users and finite records — the encoder's bytes equal json.Marshal's,
// the scanner reads back what json.Unmarshal does, LineKey reads the
// user json.Unmarshal decodes — and, on arbitrary bytes, holds every
// trace the scanner accepts to json.Unmarshal's value.
//
//	go test -fuzz=FuzzLineRoundTrip -fuzztime=30s -run='^$' ./internal/trace
func FuzzLineRoundTrip(f *testing.F) {
	for i, tr := range lineTraces() {
		line, err := json.Marshal(tr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(tr.User, 45.7, -4.8, int64(1000), uint8(i), line)
	}
	// Repeated keys: encoding/json decodes the second value into what
	// the first left behind, so the scanner must defer.
	f.Add("u", 1e-7, 1e21, int64(-1), uint8(2), []byte(`{"user":"u","records":[{"lat":1,"lon":2,"ts":3}],"records":[{"lat":5}]}`))
	f.Add("u", 1e-7, 1e21, int64(-1), uint8(2), []byte(`{"user":"a","user":"b","records":[]}`))
	f.Add("u", 0.0, 0.0, int64(0), uint8(0), []byte(` { "records" : [ ] , "user" : "x" } trailing`))
	f.Fuzz(func(t *testing.T, user string, lat, lon float64, ts int64, n uint8, raw []byte) {
		recs := make([]Record, n%5)
		for i := range recs {
			recs[i] = Record{Lat: lat / float64(i+1), Lon: lon * float64(i), TS: ts + int64(i)}
		}
		if _, err := AppendRecordsJSON(nil, recs); err == nil {
			checkLine(t, Trace{User: user, Records: recs})
		}

		s := NewScanner(raw)
		tr, ok := s.parseTrace()
		if !ok {
			return
		}
		var decoded Trace
		if err := json.Unmarshal(raw[:s.i], &decoded); err != nil {
			t.Fatalf("parseTrace accepted %q, which json.Unmarshal refuses: %v", raw[:s.i], err)
		}
		if !reflect.DeepEqual(tr, decoded) {
			t.Fatalf("parseTrace(%q) = %+v; json.Unmarshal says %+v", raw[:s.i], tr, decoded)
		}
	})
}
