package lppm

import (
	"testing"

	"mood/internal/geo"
	"mood/internal/trace"
)

func TestTRLGeneratesAssistedLocations(t *testing.T) {
	in := walkTrace("u")
	out, err := NewTRL().Obfuscate(rng(), in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != in.Len()*3 {
		t.Fatalf("record count = %d, want %d", out.Len(), in.Len()*3)
	}
	if out.User != in.User {
		t.Fatalf("user changed: %q", out.User)
	}
}

func TestTRLAssistedLocationsWithinRange(t *testing.T) {
	in := walkTrace("u")
	mech := NewTRL()
	out, err := mech.Obfuscate(rng(), in)
	if err != nil {
		t.Fatal(err)
	}
	// Every group of 3 assisted locations shares the timestamp of its
	// source record and sits within (0, r] of it.
	for i, r := range in.Records {
		for k := 0; k < 3; k++ {
			o := out.Records[i*3+k]
			if o.TS != r.TS {
				t.Fatalf("assisted location %d has ts %d, want %d", i*3+k, o.TS, r.TS)
			}
			d := geo.Haversine(r.Point(), o.Point())
			if d <= 0 || d > mech.Radius+1 {
				t.Fatalf("assisted location %.0f m away, want (0, %v]", d, mech.Radius)
			}
		}
	}
}

func TestTRLNeverEmitsRealLocation(t *testing.T) {
	in := walkTrace("u")
	out, err := NewTRL().Obfuscate(rng(), in)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range in.Records {
		for k := 0; k < 3; k++ {
			if d := geo.Haversine(r.Point(), out.Records[i*3+k].Point()); d < 100 {
				t.Fatalf("assisted location only %.0f m from the real one", d)
			}
		}
	}
}

func TestTRLCustomAssistedCount(t *testing.T) {
	in := walkTrace("u")
	out, err := TRL{Radius: 500, NumAssisted: 5}.Obfuscate(rng(), in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != in.Len()*5 {
		t.Fatalf("record count = %d, want %d", out.Len(), in.Len()*5)
	}
}

func TestTRLErrors(t *testing.T) {
	if _, err := NewTRL().Obfuscate(rng(), trace.Trace{}); err == nil {
		t.Fatal("empty trace must error")
	}
	if _, err := (TRL{Radius: 0}).Obfuscate(rng(), walkTrace("u")); err == nil {
		t.Fatal("zero radius must error")
	}
}

func TestTRLOutputSorted(t *testing.T) {
	out, err := NewTRL().Obfuscate(rng(), walkTrace("u"))
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("TRL output must stay time-sorted: %v", err)
	}
}
