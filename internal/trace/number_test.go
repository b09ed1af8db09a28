package trace

import (
	"math"
	"math/big"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mood/internal/geo"
	"mood/internal/mathx"
)

// numberGrammar is RFC 8259's number, written out independently of the
// scanner. Its fraction and exponent take zero digits so that a '.' or
// an 'e' with no digit after it shows as a refusal, as in the scanner,
// rather than as a shorter match.
var numberGrammar = regexp.MustCompile(`^[ \t\n\r]*-?(?:0|[1-9][0-9]*)(\.[0-9]*)?([eE][+-]?[0-9]*)?`)

// strconvNumber is the route the scanner's number reader replaced: the
// grammar's token, then strconv. end is the cursor after the token.
func strconvNumber(in []byte) (f float64, fok bool, v int64, vok bool, end int) {
	m := numberGrammar.FindSubmatchIndex(in)
	if m == nil || (m[2] >= 0 && m[3]-m[2] == 1) || (m[4] >= 0 && strings.Trim(string(in[m[4]:m[5]]), "eE+-") == "") {
		return 0, false, 0, false, 0
	}
	tok := strings.TrimLeft(string(in[:m[1]]), " \t\n\r")
	f, ferr := strconv.ParseFloat(tok, 64)
	v, verr := strconv.ParseInt(tok, 10, 64)
	return f, ferr == nil, v, verr == nil, m[1]
}

// checkNumber holds the scanner's float and int readers to
// strconvNumber on one input: ok, cursor, float bits and int value.
func checkNumber(t testing.TB, in []byte) {
	t.Helper()
	wantF, wantFOK, wantV, wantVOK, end := strconvNumber(in)
	s := NewScanner(in)
	f, ok := s.parseFloat()
	if ok != wantFOK || ok && (s.i != end || math.Float64bits(f) != math.Float64bits(wantF)) {
		t.Fatalf("parseFloat(%q) = %v (%#x), %v at %d; strconv says %v (%#x), %v at %d",
			in, f, math.Float64bits(f), ok, s.i, wantF, math.Float64bits(wantF), wantFOK, end)
	}
	s = NewScanner(in)
	v, ok := s.parseInt64()
	if ok != wantVOK || ok && (s.i != end || v != wantV) {
		t.Fatalf("parseInt64(%q) = %d, %v at %d; strconv says %d, %v at %d", in, v, ok, s.i, wantV, wantVOK, end)
	}
}

// TestNumberMatchesStrconv pins the one-pass number reader to strconv,
// bit for bit: on the coordinates a random walk publishes, on random
// float64 bit patterns as the encoder writes them, on random decimal
// strings of up to 20 digits, and at every boundary of the exact path.
func TestNumberMatchesStrconv(t *testing.T) {
	rng := mathx.NewRand(1)
	var buf []byte
	check := func(f float64) {
		var err error
		if buf, err = appendJSONFloat(buf[:0], f); err != nil {
			return
		}
		checkNumber(t, append(buf, ','))
	}
	// The coordinates of a dataset page: random walks of 60 m normal
	// steps around a point 4 km (normal) from Geneva.
	center := geo.Point{Lat: 46.2044, Lon: 6.1432}
	for range 5_000 {
		p := geo.Offset(center, rng.NormFloat64()*4000, rng.NormFloat64()*4000)
		for range 50 {
			p = geo.Offset(p, rng.NormFloat64()*60, rng.NormFloat64()*60)
			check(p.Lat)
			check(p.Lon)
		}
	}
	for range 200_000 {
		check(math.Float64frombits(rng.Uint64()))
	}
	// Decimal strings with up to 20 digits and the point anywhere: the
	// mantissas around 2^53 and 2^63 and the 19- and 20-digit counts.
	for range 200_000 {
		digits := strconv.FormatUint(rng.Uint64()>>rng.Intn(64), 10)
		if rng.Intn(4) == 0 {
			digits += "7"
		}
		checkNumber(t, []byte(withPoint(digits, rng.Intn(len(digits)))+"}"))
	}

	var table []string
	for _, mant := range []uint64{1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<63 - 1, 1 << 63, 1<<63 + 1, 1234567890123456789, 9999999999999999999} {
		digits := strconv.FormatUint(mant, 10)
		for point := range len(digits) {
			table = append(table, withPoint(digits, point), "-"+withPoint(digits, point))
		}
	}
	for frac := 20; frac <= 24; frac++ {
		table = append(table, "0."+strings.Repeat("0", frac-1)+"1", "0."+strings.Repeat("9", frac), "1."+strings.Repeat("0", frac-1)+"3")
	}
	table = append(table,
		"-0", "0", "-0.0", "0.000001", "1e5", "1E-7", "-1.5e+300", "1e400", "-1e-400", "123456789012345678901234567890",
		"9223372036854775807", "-9223372036854775808", "9223372036854775808", "-9223372036854775809",
		"05", "-", "1.", ".5", "-.5", "+1", "1e", "1e+", "1.e5", "0x1p3", "", " ", "-a", "\t 42", "1.5.3", "Infinity", "NaN")
	for _, in := range table {
		checkNumber(t, []byte(in))
		checkNumber(t, []byte(in+","))
	}
	for _, in := range []string{"05", "-", "1.", ".5"} {
		if _, _, ok := ScanRecords([]byte(`[{"lat":` + in + `,"lon":1,"ts":1}]`)); ok {
			t.Errorf("the scanner accepted a record with lat %s, which encoding/json refuses", in)
		}
	}
}

// withPoint puts a decimal point before digits[point:], for point > 0.
func withPoint(digits string, point int) string {
	if point == 0 {
		return digits
	}
	return digits[:point] + "." + digits[point:]
}

// FuzzNumber holds the one-pass number reader to the grammar's token
// read by strconv, on arbitrary bytes: ok, cursor, float bits and int
// value.
//
//	go test -fuzz=FuzzNumber -fuzztime=30s -run='^$' ./internal/trace
func FuzzNumber(f *testing.F) {
	for _, seed := range []string{"46.20441234567891", "6.1432", "-0", "0.000001", "1e5", "1E-7", "-1.5e+300",
		"9007199254740993", "9223372036854775808", "05", "-", "1.", ".5", "1700000000}"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkNumber(t, in)
	})
}

// TestPow10LemireRows recomputes the Eisel–Lemire table from math/big:
// row i is 10^-i scaled by the power of two that puts it in [2^127,
// 2^128), rounded down.
func TestPow10LemireRows(t *testing.T) {
	for i, row := range pow10Lemire {
		den := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(i)), nil)
		want := new(big.Int)
		for shift := uint(127); want.BitLen() != 128; shift++ {
			want.Quo(new(big.Int).Lsh(big.NewInt(1), shift), den)
		}
		got := new(big.Int).Lsh(new(big.Int).SetUint64(row[1]), 64)
		got.Or(got, new(big.Int).SetUint64(row[0]))
		if got.Cmp(want) != 0 {
			t.Errorf("row 1e-%d = %#x, want %#x", i, got, want)
		}
	}
}

// TestEiselLemireDecidesCoordinates keeps the 17-digit coordinates off
// strconv: on the coordinates a random walk publishes, every one whose
// mantissa is past Clinger's path converts in the Eisel–Lemire step, to
// strconv's bits.
func TestEiselLemireDecidesCoordinates(t *testing.T) {
	rng := mathx.NewRand(7)
	center := geo.Point{Lat: 46.2044, Lon: 6.1432}
	var buf []byte
	long := 0
	for range 20_000 {
		p := geo.Offset(center, rng.NormFloat64()*4000, rng.NormFloat64()*4000)
		for _, f := range []float64{p.Lat, -p.Lon} {
			buf, _ = appendJSONFloat(buf[:0], f)
			s := NewScanner(buf)
			n, ok := s.number()
			if !ok || n.mant < 1<<53 {
				continue
			}
			long++
			got, ok := eiselLemire(n.mant, n.frac, n.neg)
			if !ok || got != f || math.Signbit(got) != math.Signbit(f) {
				t.Fatalf("eiselLemire(%s) = %v, %v; want %v", buf, got, ok, f)
			}
		}
	}
	if long < 4_000 {
		t.Fatalf("only %d of 40000 coordinates have a mantissa past 2^53: the sample does not reach the step", long)
	}
}
