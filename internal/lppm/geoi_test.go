package lppm

import (
	"math"
	"testing"

	"mood/internal/geo"
	"mood/internal/mathx"
	"mood/internal/trace"
)

func TestGeoIPreservesStructure(t *testing.T) {
	in := walkTrace("u")
	out, err := NewGeoI().Obfuscate(rng(), in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != in.Len() {
		t.Fatalf("record count changed: %d -> %d", in.Len(), out.Len())
	}
	if out.User != in.User {
		t.Fatalf("user changed: %q", out.User)
	}
	for i := range in.Records {
		if out.Records[i].TS != in.Records[i].TS {
			t.Fatal("GeoI must not touch timestamps")
		}
	}
}

func TestGeoIDisplacementDistribution(t *testing.T) {
	// Mean displacement of planar Laplace is 2/eps.
	const eps = 0.01
	in := walkTrace("u")
	g := GeoI{Epsilon: eps}
	var sum float64
	var n int
	for trial := 0; trial < 40; trial++ {
		out, err := g.Obfuscate(mathx.NewRand(uint64(trial)), in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range in.Records {
			sum += geo.Haversine(in.Records[i].Point(), out.Records[i].Point())
			n++
		}
	}
	mean := sum / float64(n)
	want := 2 / eps
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("mean displacement = %v, want ~%v", mean, want)
	}
}

func TestGeoIEpsilonControlsNoise(t *testing.T) {
	in := walkTrace("u")
	disp := func(eps float64) float64 {
		out, err := GeoI{Epsilon: eps}.Obfuscate(mathx.NewRand(7), in)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i := range in.Records {
			sum += geo.Haversine(in.Records[i].Point(), out.Records[i].Point())
		}
		return sum / float64(in.Len())
	}
	strong := disp(0.001) // high privacy
	weak := disp(0.1)     // low privacy
	if strong < weak*5 {
		t.Fatalf("lower epsilon should displace much more: %v vs %v", strong, weak)
	}
}

func TestGeoIDeterministicPerSeed(t *testing.T) {
	in := walkTrace("u")
	a, _ := NewGeoI().Obfuscate(mathx.NewRand(1), in)
	b, _ := NewGeoI().Obfuscate(mathx.NewRand(1), in)
	c, _ := NewGeoI().Obfuscate(mathx.NewRand(2), in)
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatal("same seed must reproduce the obfuscation")
		}
	}
	same := true
	for i := range a.Records {
		if a.Records[i] != c.Records[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must differ")
	}
}

func TestGeoIInputUntouched(t *testing.T) {
	in := walkTrace("u")
	lat0 := in.Records[0].Lat
	if _, err := NewGeoI().Obfuscate(rng(), in); err != nil {
		t.Fatal(err)
	}
	if in.Records[0].Lat != lat0 {
		t.Fatal("GeoI mutated its input")
	}
}

func TestGeoIErrors(t *testing.T) {
	if _, err := NewGeoI().Obfuscate(rng(), trace.Trace{}); err == nil {
		t.Fatal("empty trace must error")
	}
	if _, err := (GeoI{Epsilon: 0}).Obfuscate(rng(), walkTrace("u")); err == nil {
		t.Fatal("zero epsilon must error")
	}
	if _, err := (GeoI{Epsilon: -1}).Obfuscate(rng(), walkTrace("u")); err == nil {
		t.Fatal("negative epsilon must error")
	}
}

// TestNonFiniteParametersRefused: GeoI and TRL refuse every parameter
// that is not a positive, finite number. A NaN passed the old `<= 0`
// checks and moved every record to NaN; an infinite ε published every
// raw location where it was.
func TestNonFiniteParametersRefused(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		for _, m := range []interface {
			Mechanism
			Validate() error
		}{GeoI{Epsilon: x}, TRL{Radius: x, NumAssisted: 3}} {
			if m.Validate() == nil {
				t.Errorf("%s with parameter %v: Validate accepted it", m.Name(), x)
			}
			if out, err := m.Obfuscate(rng(), walkTrace("u")); err == nil {
				t.Errorf("%s with parameter %v: published %d records, want an error", m.Name(), x, out.Len())
			}
		}
	}
	for _, m := range []interface{ Validate() error }{NewGeoI(), NewTRL(), GeoI{Epsilon: math.MaxFloat64}, TRL{Radius: 5e-324}} {
		if err := m.Validate(); err != nil {
			t.Errorf("%+v: %v", m, err)
		}
	}
}
