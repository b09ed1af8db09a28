package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strconv"
)

// Hand-rolled JSON fast paths for records. Records are the unit of
// every wire payload — upload chunks, batch lines, dataset pages,
// snapshots — and the generic reflective encoder/decoder dominated the
// service upload benchmarks. Records (the slice type carried by Trace
// and the upload requests) encodes and decodes the whole array in one
// pass; Record keeps a scalar decode fast path for payloads that hold
// bare records. Both keep the exact stdlib wire format — the encoder
// reproduces encoding/json's float formatting byte for byte (pinned by
// TestRecordMarshalMatchesGeneric) — and fall back to the generic
// decoder for anything unusual (escapes, case-folded keys, unknown
// fields, nulls, malformed input) so semantics, including error
// behaviour, stay identical.

// Records is a JSON-accelerated []Record. It is a plain named slice —
// every []Record value converts implicitly where a Records is expected
// and vice versa.
//
// Only decoding is customised. Encoding deliberately stays generic:
// a MarshalJSON (on the slice or the element) routes encoding/json
// through an interface call plus a mandatory re-validation (compact)
// pass over the produced bytes, which benchmarks ~2x slower than the
// cached reflective struct encoder; AppendRecordsJSON below provides
// the allocation-free single-pass encoder for callers that assemble
// NDJSON by hand.
type Records []Record

// AppendRecordsJSON appends the array rendered exactly as the generic
// encoder would ({"lat":…,"lon":…,"ts":…} objects), in a single buffer
// pass with no intermediate allocations. It errors on NaN/Inf like the
// generic encoder.
func AppendRecordsJSON(b []byte, rs []Record) ([]byte, error) {
	if rs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	var err error
	for i, r := range rs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"lat":`...)
		if b, err = appendJSONFloat(b, r.Lat); err != nil {
			return nil, err
		}
		b = append(b, `,"lon":`...)
		if b, err = appendJSONFloat(b, r.Lon); err != nil {
			return nil, err
		}
		b = append(b, `,"ts":`...)
		b = strconv.AppendInt(b, r.TS, 10)
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// UnmarshalJSON parses a canonical record array in one pass, deferring
// to the generic decoder (and its merge-into-existing-elements
// semantics, which the fast path mirrors) on anything non-canonical.
func (rs *Records) UnmarshalJSON(data []byte) error {
	if out, ok := parseCanonicalRecords(data, *rs); ok {
		*rs = out
		return nil
	}
	return json.Unmarshal(data, (*[]Record)(rs))
}

// ScanRecords parses a canonical record array at the start of data
// (leading whitespace allowed) and returns the records plus the number
// of bytes consumed — the building block for hand-written parsers of
// larger wire shapes (the batch upload line). ok=false means the input
// is not canonical and the caller must fall back to the generic
// decoder; nothing is consumed.
func ScanRecords(data []byte) (recs Records, n int, ok bool) {
	p := &recParser{data: data}
	p.skipWS()
	if !p.eat('[') {
		return nil, 0, false
	}
	p.skipWS()
	if p.eat(']') {
		return Records{}, p.i, true
	}
	// A canonical array holds no bracket but its own and one brace pair
	// per record, so the records can be counted before they are parsed
	// and the slice allocated once, at its final size — or at the number
	// of full records that fit, so that a line of bare braces cannot ask
	// for more memory than it occupies.
	end := bytes.IndexByte(data[p.i:], ']')
	if end < 0 {
		return nil, 0, false
	}
	count := min(bytes.Count(data[p.i:p.i+end], openBrace), end/len(`{"lat":0,"lon":0,"ts":0}`)+1)
	out := make(Records, 0, count)
	for {
		rec, recOK := p.parseRecord(Record{})
		if !recOK {
			return nil, 0, false
		}
		out = append(out, rec)
		p.skipWS()
		switch {
		case p.eat(','):
			p.skipWS()
		case p.eat(']'):
			return out, p.i, true
		default:
			return nil, 0, false
		}
	}
}

// parseCanonicalRecords parses `[ {record} , ... ]`. existing supplies
// the base elements for the stdlib's merge semantics when decoding into
// a pre-populated slice.
func parseCanonicalRecords(data []byte, existing []Record) (Records, bool) {
	p := &recParser{data: data}
	p.skipWS()
	if !p.eat('[') {
		return nil, false
	}
	var out Records
	p.skipWS()
	if p.eat(']') {
		p.skipWS()
		return Records{}, p.done()
	}
	for {
		var base Record
		if len(out) < len(existing) {
			base = existing[len(out)]
		}
		rec, ok := p.parseRecord(base)
		if !ok {
			return nil, false
		}
		out = append(out, rec)
		p.skipWS()
		switch {
		case p.eat(','):
			p.skipWS()
		case p.eat(']'):
			p.skipWS()
			return out, p.done()
		default:
			return nil, false
		}
	}
}

// (Record deliberately has no MarshalJSON: a per-element method forces
// the encoder through an interface call plus a compact pass per record,
// which benchmarks slower than the cached reflective struct encoder.
// Encoding always goes through that generic encoder; callers assembling
// NDJSON by hand use AppendRecordsJSON, which emits identical bytes.)

// recordAlias decodes like Record but without the custom unmarshaller,
// for the fallback path.
type recordAlias struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
	TS  int64   `json:"ts"`
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *Record) UnmarshalJSON(data []byte) error {
	p := &recParser{data: data}
	p.skipWS()
	if rec, ok := p.parseRecord(*r); ok {
		p.skipWS()
		if p.done() {
			*r = rec
			return nil
		}
	}
	a := recordAlias{Lat: r.Lat, Lon: r.Lon, TS: r.TS}
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*r = Record{Lat: a.Lat, Lon: a.Lon, TS: a.TS}
	return nil
}

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest representation, 'f' form in the human range, 'e' form with a
// trimmed exponent outside it.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, errors.New("trace: unsupported float value (NaN or Inf) in record")
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Trim the leading zero of two-digit exponents ("2e-09" ->
		// "2e-9"), as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// recParser is the cursor of the canonical fast path.
type recParser struct {
	data []byte
	i    int
}

func (p *recParser) skipWS() {
	for p.i < len(p.data) {
		switch p.data[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *recParser) eat(c byte) bool {
	if p.i < len(p.data) && p.data[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *recParser) done() bool { return p.i == len(p.data) }

// parseRecord parses one canonical record object: exact-case
// "lat"/"lon"/"ts" keys (any order, duplicates last-wins like the
// stdlib) with plain number values, starting from base (the stdlib
// merges object fields into the existing value). ok=false defers to the
// generic decoder.
func (p *recParser) parseRecord(base Record) (Record, bool) {
	rec := base
	p.skipWS()
	if !p.eat('{') {
		return rec, false
	}
	p.skipWS()
	if p.eat('}') {
		return rec, true
	}
	for {
		p.skipWS()
		// Key: a short, escape-free string.
		if !p.eat('"') {
			return rec, false
		}
		start := p.i
		for p.i < len(p.data) && p.data[p.i] != '"' {
			if p.data[p.i] == '\\' {
				return rec, false
			}
			p.i++
		}
		if p.i >= len(p.data) {
			return rec, false
		}
		key := p.data[start:p.i]
		p.i++
		p.skipWS()
		if !p.eat(':') {
			return rec, false
		}
		p.skipWS()
		// Value: a bare JSON number token.
		start = p.i
	scan:
		for p.i < len(p.data) {
			switch c := p.data[p.i]; {
			case c >= '0' && c <= '9', c == '-', c == '+', c == '.', c == 'e', c == 'E':
				p.i++
			default:
				break scan
			}
		}
		token := p.data[start:p.i]
		if !isJSONNumber(token) {
			// Not a valid RFC 8259 number (strconv is laxer: it accepts
			// "+1", "05", ".5", hex floats); let the generic decoder
			// produce its exact error.
			return rec, false
		}
		switch {
		case bytes.Equal(key, keyLat), bytes.Equal(key, keyLon):
			f, err := strconv.ParseFloat(string(token), 64)
			if err != nil {
				return rec, false
			}
			if key[1] == 'a' {
				rec.Lat = f
			} else {
				rec.Lon = f
			}
		case bytes.Equal(key, keyTS):
			ts, err := strconv.ParseInt(string(token), 10, 64)
			if err != nil {
				return rec, false
			}
			rec.TS = ts
		default:
			return rec, false
		}
		p.skipWS()
		switch {
		case p.eat(','):
		case p.eat('}'):
			return rec, true
		default:
			return rec, false
		}
	}
}

var (
	openBrace = []byte{'{'}

	keyLat = []byte("lat")
	keyLon = []byte("lon")
	keyTS  = []byte("ts")
)

// isJSONNumber reports whether the token matches the RFC 8259 number
// grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func isJSONNumber(tok []byte) bool {
	i, n := 0, len(tok)
	if i < n && tok[i] == '-' {
		i++
	}
	switch {
	case i < n && tok[i] == '0':
		i++
	case i < n && tok[i] >= '1' && tok[i] <= '9':
		for i < n && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
	default:
		return false
	}
	if i < n && tok[i] == '.' {
		i++
		if i >= n || tok[i] < '0' || tok[i] > '9' {
			return false
		}
		for i < n && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
	}
	if i < n && (tok[i] == 'e' || tok[i] == 'E') {
		i++
		if i < n && (tok[i] == '+' || tok[i] == '-') {
			i++
		}
		if i >= n || tok[i] < '0' || tok[i] > '9' {
			return false
		}
		for i < n && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
	}
	return i == n
}
