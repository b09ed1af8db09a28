package service

import (
	"bytes"
	"encoding/json"

	"mood/internal/trace"
)

// The client's decoder of a JSON dataset page. A page is 200 traces of
// 50 records in 640 KB on the benchmark's cluster, and encoding/json
// reads it three times: the decoder's scan for the end of the value,
// the reflective walk, and Records.UnmarshalJSON's own pass over every
// array the walk hands it. scanDatasetPage reads the canonical shape —
// what writeJSON and the cluster router's splice emit — once, with the
// batch line's scanner and trace.ScanRecords; anything else (escaped or
// non-UTF-8 strings, unknown or repeated keys, nulls, garbage) reports
// ok=false and encoding/json decides, with its exact values and errors
// (pinned by FuzzDatasetPageDecode).

// decodeDatasetPage decodes one JSON dataset page body.
func decodeDatasetPage(body []byte) (DatasetPage, error) {
	if page, ok := scanDatasetPage(body); ok {
		return page, nil
	}
	var page DatasetPage
	err := json.Unmarshal(body, &page)
	return page, err
}

var closeBracket = []byte{']'}

func scanDatasetPage(body []byte) (DatasetPage, bool) {
	var page DatasetPage
	sc := chunkScanner{line: body, n: len(body)}
	sc.skipWS()
	if !sc.eat('{') {
		return page, false
	}
	sc.skipWS()
	if sc.eat('}') {
		sc.skipWS()
		return page, sc.i == sc.n
	}
	// One bit per key seen: a repeated key defers to the stdlib, which
	// decodes the second value into what the first left behind.
	const (
		seenName = 1 << iota
		seenTraces
		seenNextCursor
		seenTotalUsers
	)
	seen := 0
	for {
		key, ok := sc.objectKey()
		if !ok {
			return page, false
		}
		bit := 0
		switch string(key) {
		case "name":
			bit = seenName
			page.Name, ok = sc.parseString()
		case "traces":
			bit = seenTraces
			page.Traces, ok = scanPageTraces(&sc)
		case "next_cursor":
			bit = seenNextCursor
			page.NextCursor, ok = sc.parseString()
		case "total_users":
			bit = seenTotalUsers
			page.TotalUsers, ok = sc.parseCount()
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return page, false
		}
		seen |= bit
		sc.skipWS()
		switch {
		case sc.eat(','):
		case sc.eat('}'):
			sc.skipWS()
			return page, sc.i == sc.n
		default:
			return page, false
		}
	}
}

// scanPageTraces parses the traces array into one slice sized up front:
// a canonical trace closes one array, its records, so the ']' bytes in
// what is left of the body count the traces (plus the array's own, and
// any inside a pseudonym — a capacity, not a length).
func scanPageTraces(sc *chunkScanner) ([]trace.Trace, bool) {
	if !sc.eat('[') {
		return nil, false
	}
	out := make([]trace.Trace, 0, bytes.Count(sc.rest(), closeBracket))
	sc.skipWS()
	if sc.eat(']') {
		return out, true
	}
	for {
		sc.skipWS()
		t, ok := scanPageTrace(sc)
		if !ok {
			return nil, false
		}
		out = append(out, t)
		sc.skipWS()
		switch {
		case sc.eat(','):
		case sc.eat(']'):
			return out, true
		default:
			return nil, false
		}
	}
}

// scanPageTrace parses one {"user":"…","records":[…]} object.
func scanPageTrace(sc *chunkScanner) (trace.Trace, bool) {
	var t trace.Trace
	if !sc.eat('{') {
		return t, false
	}
	sc.skipWS()
	if sc.eat('}') {
		return t, true
	}
	const (
		seenUser = 1 << iota
		seenRecords
	)
	seen := 0
	for {
		key, ok := sc.objectKey()
		if !ok {
			return t, false
		}
		bit := 0
		switch string(key) {
		case "user":
			bit = seenUser
			t.User, ok = sc.parseString()
		case "records":
			bit = seenRecords
			var n int
			t.Records, n, ok = trace.ScanRecords(sc.rest())
			sc.i += n
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return t, false
		}
		seen |= bit
		sc.skipWS()
		switch {
		case sc.eat(','):
		case sc.eat('}'):
			return t, true
		default:
			return t, false
		}
	}
}

// objectKey consumes a member's `"key" :`, up to its value.
func (sc *chunkScanner) objectKey() ([]byte, bool) {
	sc.skipWS()
	key, ok := sc.parseRawString()
	if !ok {
		return nil, false
	}
	sc.skipWS()
	if !sc.eat(':') {
		return nil, false
	}
	sc.skipWS()
	return key, true
}

// parseCount consumes a plain non-negative decimal integer that fits an
// int (total_users). Signs and leading zeros defer to the stdlib, which
// accepts some and refuses others; a fraction or an exponent fails the
// caller's look for the delimiter that must follow.
func (sc *chunkScanner) parseCount() (int, bool) {
	start, v := sc.i, 0
	for sc.i < sc.n && sc.line[sc.i] >= '0' && sc.line[sc.i] <= '9' {
		v = v*10 + int(sc.line[sc.i]-'0')
		sc.i++
	}
	digits := sc.i - start
	if digits == 0 || digits > 9 || (digits > 1 && sc.line[start] == '0') {
		return 0, false
	}
	return v, true
}
