package metrics

import (
	"math"
	"testing"

	"mood/internal/geo"
	"mood/internal/lppm"
	"mood/internal/mathx"
	"mood/internal/trace"
)

var origin = geo.Point{Lat: 45.7640, Lon: 4.8357}

// line builds a trace moving east at 1 m/s, one record per second.
func line(n int) trace.Trace {
	rs := make([]trace.Record, n)
	for i := range rs {
		rs[i] = trace.At(geo.Offset(origin, float64(i), 0), int64(i))
	}
	return trace.New("u", rs)
}

func TestSTDIdenticalTraceIsZero(t *testing.T) {
	tr := line(100)
	if d := STD(tr, tr); d > 0.001 {
		t.Fatalf("STD(T,T) = %v", d)
	}
}

func TestSTDConstantOffset(t *testing.T) {
	tr := line(100)
	shifted := tr.Clone()
	for i := range shifted.Records {
		p := geo.Offset(shifted.Records[i].Point(), 0, 300)
		shifted.Records[i] = trace.At(p, shifted.Records[i].TS)
	}
	d := STD(tr, shifted)
	if math.Abs(d-300) > 1 {
		t.Fatalf("STD = %v, want ~300", d)
	}
}

func TestSTDInterpolatesBetweenSamples(t *testing.T) {
	// Original has records at t=0 and t=100; obfuscated record at t=50
	// exactly midway on the path must score ~0.
	a := trace.At(origin, 0)
	b := trace.At(geo.Offset(origin, 100, 0), 100)
	orig := trace.New("u", []trace.Record{a, b})
	mid := trace.New("u", []trace.Record{trace.At(geo.Offset(origin, 50, 0), 50)})
	if d := STD(orig, mid); d > 0.5 {
		t.Fatalf("interpolated midpoint STD = %v, want ~0", d)
	}
}

func TestSTDOutOfSpanClampsToEndpoints(t *testing.T) {
	orig := line(10) // spans t=0..9
	// Obfuscated record long after the trace, at the last position.
	late := trace.New("u", []trace.Record{
		trace.At(geo.Offset(origin, 9, 0), 500),
	})
	if d := STD(orig, late); d > 0.5 {
		t.Fatalf("clamped projection STD = %v, want ~0", d)
	}
}

func TestSTDEmptyTraces(t *testing.T) {
	if d := STD(trace.Trace{}, line(5)); d != 0 {
		t.Fatalf("STD(empty, x) = %v", d)
	}
	if d := STD(line(5), trace.Trace{}); d != 0 {
		t.Fatalf("STD(x, empty) = %v", d)
	}
}

func TestSTDMoreNoiseMoreDistortion(t *testing.T) {
	tr := line(500)
	obf := func(eps float64) float64 {
		out, err := lppm.GeoI{Epsilon: eps}.Obfuscate(mathx.NewRand(5), tr)
		if err != nil {
			t.Fatal(err)
		}
		return STD(tr, out)
	}
	weak := obf(0.1)
	strong := obf(0.005)
	if strong <= weak {
		t.Fatalf("more noise must distort more: %v <= %v", strong, weak)
	}
}

func TestSTDGeoIMatchesTheory(t *testing.T) {
	// STD under Geo-I should approximate the mean displacement 2/eps.
	tr := line(2000)
	out, err := lppm.GeoI{Epsilon: 0.01}.Obfuscate(mathx.NewRand(9), tr)
	if err != nil {
		t.Fatal(err)
	}
	d := STD(tr, out)
	if d < 150 || d > 250 {
		t.Fatalf("STD = %v, want ~200", d)
	}
}

func TestTemporalProjectionDegenerateTimestamps(t *testing.T) {
	// Two records with the same timestamp must not divide by zero.
	tr := trace.New("u", []trace.Record{
		trace.At(origin, 10),
		trace.At(geo.Offset(origin, 100, 0), 10),
		trace.At(geo.Offset(origin, 200, 0), 20),
	})
	p := TemporalProjection(tr, 10)
	if !p.Valid() {
		t.Fatalf("projection invalid: %v", p)
	}
}

func TestBandOf(t *testing.T) {
	tests := []struct {
		std  float64
		want Band
	}{
		{0, BandLow}, {499, BandLow}, {500, BandMedium}, {999, BandMedium},
		{1000, BandHigh}, {4999, BandHigh}, {5000, BandExtreme}, {1e9, BandExtreme},
	}
	for _, tt := range tests {
		if got := BandOf(tt.std); got != tt.want {
			t.Errorf("BandOf(%v) = %v, want %v", tt.std, got, tt.want)
		}
	}
	if len(Bands()) != 4 {
		t.Fatal("Bands() must list 4 bands")
	}
	for _, b := range Bands() {
		if b.String() == "unknown" {
			t.Fatal("band renders as unknown")
		}
	}
}

func TestSTDUtility(t *testing.T) {
	u := STDUtility{}
	if u.Name() != "STD" {
		t.Fatalf("name = %q", u.Name())
	}
	if !u.Better(10, 20) || u.Better(20, 10) {
		t.Fatal("Better must prefer lower distortion")
	}
	tr := line(50)
	if got := u.Measure(tr, tr); got > 0.001 {
		t.Fatalf("Measure(T,T) = %v", got)
	}
	if !u.Better(1, math.Inf(1)) {
		t.Fatal("any measurement must beat +Inf")
	}
}
