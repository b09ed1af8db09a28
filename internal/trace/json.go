package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/bits"
	"strconv"
	"unicode/utf8"
)

// The JSON trace line, {"user":"…","records":[{"lat":…,"lon":…,"ts":…},…]},
// is the one contract between the tiers of the deployment: the client
// uploads chunks as such lines, a node serves its dataset pages as them
// and the cluster router merges pages line by line. This file owns the
// format, so no other package writes or reads it by hand:
//
//   - one encoder: AppendTraceJSON (with AppendTraceHead for lines that
//     carry more members, AppendRecordsJSON and AppendJSONString), which
//     writes what encoding/json writes, byte for byte — float formatting
//     and string escaping included (pinned by FuzzLineRoundTrip);
//   - one scanner: Scanner, which reads the canonical shapes — the
//     record array, the trace object and the envelopes other packages
//     build around them — in one pass, and reports ok=false on anything
//     else (escapes, non-UTF-8, unknown or repeated keys, nulls,
//     malformed input) so the caller falls back to encoding/json and
//     keeps its exact values and errors. It reads each number once:
//     the loop that checks the grammar also builds the mantissa, and a
//     float with no exponent, at most 19 significant digits and at most
//     22 fraction digits converts from it — one exact division when the
//     mantissa is below 2^53, an Eisel–Lemire step above; an integer
//     below 2^63 is its mantissa; every other number, and the rare
//     product Eisel–Lemire cannot round, goes to strconv. A record in
//     the encoder's own bytes is matched literally, with no key lookup;
//   - one key reader: LineKey, which reads a line's user out of the frame
//     the encoder writes without decoding the rest.

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

// AppendTraceJSON appends t exactly as json.Marshal renders it.
func AppendTraceJSON(b []byte, t Trace) ([]byte, error) {
	b, err := AppendTraceHead(b, t.User, t.Records)
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// AppendTraceHead appends the head of a trace line — the opening brace
// and the user and records members, {"user":…,"records":[…] — and
// leaves the object open for the caller's further members and closing
// brace.
func AppendTraceHead(b []byte, user string, rs []Record) ([]byte, error) {
	b = append(b, `{"user":`...)
	b = AppendJSONString(b, user)
	b = append(b, `,"records":`...)
	return AppendRecordsJSON(b, rs)
}

// The fixed frame of a line that holds a trace and nothing else, as
// AppendTraceJSON writes it. LineKey relies on it.
var (
	linePrefix = []byte(`{"user":"`)
	lineMiddle = []byte(`,"records":[`)
	lineSuffix = []byte(`]}`)
)

// LineKey reads the user out of one line in the frame AppendTraceJSON
// writes, without decoding anything else; ok=false means the line does
// not have the frame. The key aliases the line unless the encoder
// escaped something in it (quotes, backslashes, <, >, &, U+2028/9),
// which is rare enough to pay for a real unquote.
func LineKey(line []byte) ([]byte, bool) {
	if !bytes.HasPrefix(line, linePrefix) || !bytes.HasSuffix(line, lineSuffix) {
		return nil, false
	}
	start := len(linePrefix)
	end, escaped := start, false
	for end < len(line) && line[end] != '"' {
		if line[end] == '\\' {
			escaped = true
			end++
		}
		end++
	}
	if end >= len(line) || !bytes.HasPrefix(line[end+1:], lineMiddle) {
		return nil, false
	}
	if escaped {
		return unquote(line[start-1 : end+1])
	}
	return line[start:end], true
}

// AppendJSONString appends s quoted exactly as encoding/json quotes a
// string. Plain ASCII — every pseudonym, key and cursor the system
// mints — is copied as is; anything encoding/json escapes or repairs
// (quotes, backslashes, controls, <, > and &, U+2028/9, invalid UTF-8)
// sits behind a non-plain byte, which sends s to encoding/json itself.
func AppendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendQuoted(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendQuoted and unquote are the codec's cold paths, kept out of the
// hot bodies (appendQuoted would inline): encoding/json moves what it
// touches to the heap.
//
//go:noinline
func appendQuoted(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

func unquote(quoted []byte) ([]byte, bool) {
	var s string
	if err := json.Unmarshal(quoted, &s); err != nil {
		return nil, false
	}
	return []byte(s), true
}

var errNonFinite = errors.New("trace: unsupported float value (NaN or Inf) in record")

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest representation, 'f' form in the human range, 'e' form with a
// trimmed exponent outside it.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, errNonFinite
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

// ScanRecords parses a canonical record array at the start of data
// (leading whitespace allowed) and returns the records plus the number
// of bytes consumed. ok=false means the input is not canonical and the
// caller must fall back to the generic decoder; nothing is consumed.
func ScanRecords(data []byte) (recs []Record, n int, ok bool) {
	s := NewScanner(data)
	if recs, ok = s.ParseRecords(); !ok {
		return nil, 0, false
	}
	return recs, s.i, true
}

// Scanner is the cursor of the canonical fast paths. It is a struct
// with methods rather than a set of closures: a closure capturing the
// cursor by reference forces it to the heap on every call, and the fast
// paths exist to not allocate. Every Parse method starts at the value,
// leading whitespace allowed; ok=false abandons the scan.
type Scanner struct {
	data []byte
	i    int
}

// NewScanner returns a scanner at the start of data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

func (s *Scanner) skipWS() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *Scanner) eat(c byte) bool {
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// End reports whether nothing but whitespace is left.
func (s *Scanner) End() bool {
	s.skipWS()
	return s.i == len(s.data)
}

// Field steps to the value of the next member of the object at the
// cursor: on the first call, with *seen zero, past the opening brace;
// on later ones past the comma that ends the previous member. It
// returns the member's key, or "" once the object closes. The key must
// be one of keys and not seen before — encoding/json decodes a repeated
// key's value into what the first one left behind, so a repeat is not
// canonical. seen holds one bit per key of keys.
func (s *Scanner) Field(seen *uint, keys ...string) (string, bool) {
	s.skipWS()
	switch {
	case *seen != 0:
		if !s.eat(',') {
			return "", s.eat('}')
		}
	case !s.eat('{'):
		return "", false
	default:
		s.skipWS()
		if s.eat('}') {
			return "", true
		}
	}
	key, ok := s.parseRawString()
	if !ok {
		return "", false
	}
	s.skipWS()
	if !s.eat(':') {
		return "", false
	}
	for i, k := range keys {
		if string(key) == k {
			if *seen&(1<<i) != 0 {
				return "", false
			}
			*seen |= 1 << i
			return k, true
		}
	}
	return "", false
}

// ParseString consumes a canonical string and returns a copy of it.
func (s *Scanner) ParseString() (string, bool) {
	b, ok := s.parseRawString()
	return string(b), ok
}

// parseRawString consumes a canonical string — escape-free, no control
// bytes, valid UTF-8 (encoding/json rejects raw controls and rewrites
// invalid UTF-8, so both defer to it) — and returns the bytes between
// the quotes, aliasing the input.
func (s *Scanner) parseRawString() ([]byte, bool) {
	s.skipWS()
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.data) && s.data[s.i] != '"' {
		if s.data[s.i] == '\\' || s.data[s.i] < 0x20 {
			return nil, false
		}
		s.i++
	}
	if s.i >= len(s.data) {
		return nil, false
	}
	b := s.data[start:s.i]
	s.i++
	return b, utf8.Valid(b)
}

// ParseBool consumes true or false.
func (s *Scanner) ParseBool() (bool, bool) {
	s.skipWS()
	switch {
	case s.literal("true"):
		return true, true
	case s.literal("false"):
		return false, true
	}
	return false, false
}

// ParseInt consumes a JSON number that fits an int.
func (s *Scanner) ParseInt() (int, bool) {
	v, ok := s.parseInt64()
	return int(v), ok && int64(int(v)) == v
}

// ParseRecords consumes a canonical record array.
func (s *Scanner) ParseRecords() ([]Record, bool) {
	s.skipWS()
	if !s.eat('[') {
		return nil, false
	}
	// A canonical array holds no bracket but its own and one brace pair
	// per record, so the records can be counted before they are parsed
	// and the slice allocated once, at its final size — or at the number
	// of full records that fit, so that a line of bare braces cannot ask
	// for more memory than it occupies.
	end := bytes.IndexByte(s.data[s.i:], ']')
	if end < 0 {
		return nil, false
	}
	count := min(bytes.Count(s.data[s.i:s.i+end], openBrace), end/len(`{"lat":0,"lon":0,"ts":0}`)+1)
	out := make([]Record, 0, count)
	for i := 0; ; i++ {
		if more, ok := s.elem(i); !more {
			return out, ok
		}
		rec, ok := s.parseRecord()
		if !ok {
			return nil, false
		}
		out = append(out, rec)
	}
}

// ParseTraces consumes an array of canonical trace objects into one
// slice sized up front: a canonical trace closes one array, its
// records, so the ']' bytes in what is left of the input count the
// traces (plus the array's own, and any inside a user — a capacity, not
// a length).
func (s *Scanner) ParseTraces() ([]Trace, bool) {
	s.skipWS()
	if !s.eat('[') {
		return nil, false
	}
	out := make([]Trace, 0, bytes.Count(s.data[s.i:], closeBracket))
	for i := 0; ; i++ {
		if more, ok := s.elem(i); !more {
			return out, ok
		}
		t, ok := s.parseTrace()
		if !ok {
			return nil, false
		}
		out = append(out, t)
	}
}

// elem steps to element i of the array whose opening bracket the
// cursor has passed: past the comma that ends element i-1 when i > 0.
// more is false once the array closes.
func (s *Scanner) elem(i int) (more, ok bool) {
	s.skipWS()
	switch {
	case s.eat(']'):
		return false, true
	case i > 0 && !s.eat(','):
		return false, false
	}
	return true, true
}

// parseTrace consumes one {"user":"…","records":[…]} object.
func (s *Scanner) parseTrace() (Trace, bool) {
	var t Trace
	var seen uint
	for {
		key, ok := s.Field(&seen, "user", "records")
		switch key {
		case "":
			return t, ok
		case "user":
			t.User, ok = s.ParseString()
		case "records":
			t.Records, ok = s.ParseRecords()
		}
		if !ok {
			return t, false
		}
	}
}

// parseRecord consumes one canonical record object — exact-case
// "lat"/"lon"/"ts" keys in any order with plain number values; a
// missing key reads as zero. The shape AppendRecordsJSON writes is
// matched first, byte for byte and with no key lookup; anything else
// rewinds the cursor and goes through Field, key by key.
func (s *Scanner) parseRecord() (Record, bool) {
	start := s.i
	if rec, ok := s.encodedRecord(); ok {
		return rec, true
	}
	s.i = start
	var rec Record
	var seen uint
	for {
		key, ok := s.Field(&seen, "lat", "lon", "ts")
		if key == "" {
			return rec, ok
		}
		switch key {
		case "lat":
			rec.Lat, ok = s.parseFloat()
		case "lon":
			rec.Lon, ok = s.parseFloat()
		case "ts":
			rec.TS, ok = s.parseInt64()
		}
		if !ok {
			return rec, false
		}
	}
}

// encodedRecord consumes a record in exactly the encoder's shape,
// {"lat":…,"lon":…,"ts":…}, and sets all three fields from it.
func (s *Scanner) encodedRecord() (rec Record, ok bool) {
	s.skipWS()
	if !s.literal(`{"lat":`) {
		return rec, false
	}
	if rec.Lat, ok = s.parseFloat(); !ok || !s.literal(`,"lon":`) {
		return rec, false
	}
	if rec.Lon, ok = s.parseFloat(); !ok || !s.literal(`,"ts":`) {
		return rec, false
	}
	if rec.TS, ok = s.parseInt64(); !ok {
		return rec, false
	}
	return rec, s.eat('}')
}

// literal consumes lit if the input continues with it.
func (s *Scanner) literal(lit string) bool {
	if len(s.data)-s.i < len(lit) || string(s.data[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// num is one number token as Scanner.number reads it: the token and,
// from the same pass over its digits, what the exact conversions need.
type num struct {
	tok  []byte
	mant uint64 // the digits as one integer, sign and point dropped
	nd   int    // significant digits in mant: it is exact while nd <= 19
	frac int    // digits after the point
	neg  bool   // a leading '-'
	exp  bool   // an exponent is present
}

// number consumes a token of the RFC 8259 number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. strconv is laxer (it
// accepts "+1", ".5" and hex floats), so what the grammar refuses is
// left to the generic decoder and its exact error; a longer token such
// as "05" fails the caller's look for the delimiter that must follow.
func (s *Scanner) number() (n num, ok bool) {
	s.skipWS()
	start := s.i
	n.neg = s.eat('-')
	if !s.eat('0') && s.digits(&n) == 0 {
		return n, false
	}
	if s.eat('.') {
		if n.frac = s.digits(&n); n.frac == 0 {
			return n, false
		}
	}
	if s.eat('e') || s.eat('E') {
		n.exp = true
		if !s.eat('+') {
			s.eat('-')
		}
		if s.digits(&n) == 0 {
			return n, false
		}
	}
	n.tok = s.data[start:s.i]
	return n, true
}

// digits consumes a run of decimal digits, appends them to n's
// mantissa and returns how many there were. Leading zeros are not
// significant digits. The exponent's digits land in the mantissa too;
// a number with an exponent never reads it.
func (s *Scanner) digits(n *num) int {
	// Locals, not the struct fields, so that the loop runs in registers.
	data, i, mant, nd := s.data, s.i, n.mant, n.nd
	for ; i < len(data); i++ {
		d := data[i] - '0'
		if d > 9 {
			break
		}
		mant = mant*10 + uint64(d)
		if mant != 0 {
			nd++
		}
	}
	count := i - s.i
	s.i, n.mant, n.nd = i, mant, nd
	return count
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseFloat consumes a number and converts it exactly as
// strconv.ParseFloat does. A number with no exponent, at most 19
// significant digits and at most 22 fraction digits is mant·10^-frac
// with mant exact, and converts without a second scan:
//   - Clinger's fast path: with a mantissa below 2^53 both the mantissa
//     and 10^frac are exact float64s, so one IEEE division rounds the
//     quotient correctly — the bits strconv returns, -0 included;
//   - otherwise (17-digit coordinates, one in five) the Eisel–Lemire
//     step strconv itself takes next, on the mantissa already in hand.
//
// Anything else, and the rare product Eisel–Lemire cannot round, goes
// to strconv on the token already delimited.
func (s *Scanner) parseFloat() (float64, bool) {
	n, ok := s.number()
	if !ok {
		return 0, false
	}
	if !n.exp && n.nd <= 19 && n.frac < len(pow10) {
		if n.mant < 1<<53 {
			f := float64(n.mant) / pow10[n.frac]
			if n.neg {
				f = -f
			}
			return f, true
		}
		if f, ok := eiselLemire(n.mant, n.frac, n.neg); ok {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(string(n.tok), 64)
	return f, err == nil
}

// eiselLemire converts man·10^-frac, man ≥ 2^53 and frac ≤ 22, to the
// nearest float64 by Eisel and Lemire's algorithm (Lemire, "Number
// Parsing at a Gigabyte per Second", 2021): a 64×128-bit product with a
// truncated power of ten, whose top 54 bits give the result unless the
// truncation could have moved the rounding, in which case ok is false.
// It is strconv's eiselLemire64 for this exponent range, where neither
// zero nor an exponent outside the float64 range can occur, so an ok
// result is the bits strconv.ParseFloat returns.
func eiselLemire(man uint64, frac int, neg bool) (f float64, ok bool) {
	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*-frac>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow10Lemire[frac][1])

	// Wider approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow10Lemire[frac][0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}

// pow10Lemire[i] is 10^-i as a 128-bit mantissa rounded down, {low,
// high} with the high word's top bit set: the rows 1e0…1e-22 of
// strconv's detailedPowersOfTen (TestPow10LemireRows recomputes them).
var pow10Lemire = [len(pow10)][2]uint64{
	{0x0000000000000000, 0x8000000000000000}, // 1e0
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}, // 1e-1
	{0x3D70A3D70A3D70A3, 0xA3D70A3D70A3D70A}, // 1e-2
	{0x645A1CAC083126E9, 0x83126E978D4FDF3B}, // 1e-3
	{0xD3C36113404EA4A8, 0xD1B71758E219652B}, // 1e-4
	{0x0FCF80DC33721D53, 0xA7C5AC471B478423}, // 1e-5
	{0xA63F9A49C2C1B10F, 0x8637BD05AF6C69B5}, // 1e-6
	{0x3D32907604691B4C, 0xD6BF94D5E57A42BC}, // 1e-7
	{0xFDC20D2B36BA7C3D, 0xABCC77118461CEFC}, // 1e-8
	{0x31680A88F8953030, 0x89705F4136B4A597}, // 1e-9
	{0xB573440E5A884D1B, 0xDBE6FECEBDEDD5BE}, // 1e-10
	{0xF78F69A51539D748, 0xAFEBFF0BCB24AAFE}, // 1e-11
	{0xF93F87B7442E45D3, 0x8CBCCC096F5088CB}, // 1e-12
	{0x2865A5F206B06FB9, 0xE12E13424BB40E13}, // 1e-13
	{0x538484C19EF38C94, 0xB424DC35095CD80F}, // 1e-14
	{0x0F9D37014BF60A10, 0x901D7CF73AB0ACD9}, // 1e-15
	{0x4C2EBE687989A9B3, 0xE69594BEC44DE15B}, // 1e-16
	{0x09BEFEB9FAD487C2, 0xB877AA3236A4B449}, // 1e-17
	{0x3AFF322E62439FCF, 0x9392EE8E921D5D07}, // 1e-18
	{0x2B31E9E3D06C32E5, 0xEC1E4A7DB69561A5}, // 1e-19
	{0x88F4BB1CA6BCF584, 0xBCE5086492111AEA}, // 1e-20
	{0xD3F6FC16EBCA5E03, 0x971DA05074DA7BEE}, // 1e-21
	{0x5324C68B12DD6338, 0xF1C90080BAF72CB1}, // 1e-22
}

// parseInt64 consumes a number and converts it exactly as
// strconv.ParseInt does: an integer whose digits fit below 2^63 is read
// off the mantissa, anything else goes to strconv and its refusals.
func (s *Scanner) parseInt64() (int64, bool) {
	n, ok := s.number()
	if !ok {
		return 0, false
	}
	if n.frac == 0 && !n.exp && n.nd <= 19 && n.mant < 1<<63 {
		v := int64(n.mant)
		if n.neg {
			v = -v
		}
		return v, true
	}
	v, err := strconv.ParseInt(string(n.tok), 10, 64)
	return v, err == nil
}

var (
	openBrace    = []byte{'{'}
	closeBracket = []byte{']'}
)
