package lppm

import (
	"testing"

	"mood/internal/geo"
	"mood/internal/profile"
	"mood/internal/trace"
)

// regionSize returns the edge length in meters of the region a point
// would be generalised to.
func regionSize(a *KAnon, p geo.Point) float64 {
	x, y := a.proj.ToXY(p)
	return a.locate(x, y).half * 2
}

// downtown is where six background users cluster; it sits well away
// from the quadtree's center lines so the dense block is not bisected
// at the root (bisection would only coarsen granularity, not break the
// k-guarantee, but it would make the granularity assertions fragile).
var downtown = geo.Offset(origin, 5200, -3100)

// kanonBackground builds 8 users: 6 share a downtown block, 2 live in
// isolated spots.
func kanonBackground() []trace.Trace {
	var out []trace.Trace
	for i := 0; i < 6; i++ {
		center := geo.Offset(downtown, float64(i)*40, float64(i)*25)
		out = append(out, clustered("shared-"+string(rune('a'+i)), center, 60))
	}
	out = append(out, clustered("loner-1", geo.Offset(origin, 30000, 0), 60))
	out = append(out, clustered("loner-2", geo.Offset(origin, -30000, 12000), 60))
	return out
}

func TestNewKAnonValidation(t *testing.T) {
	if _, err := NewKAnon(5, profile.New(nil, 0)); err == nil {
		t.Fatal("no background must error")
	}
	if _, err := NewKAnon(5, profile.New([]trace.Trace{{User: "x"}}, 0)); err == nil {
		t.Fatal("empty background traces must error")
	}
	a, err := NewKAnon(0, profile.New(kanonBackground(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if a.k != DefaultK {
		t.Fatalf("k = %d, want default %d", a.k, DefaultK)
	}
}

func TestKAnonGuarantee(t *testing.T) {
	// Every published point must be the center of a region visited by
	// at least k background users — verified by recounting visitors.
	bg := kanonBackground()
	a, err := NewKAnon(3, profile.New(bg, 0))
	if err != nil {
		t.Fatal(err)
	}
	in := clustered("victim", geo.Offset(downtown, 100, 60), 40)
	out, err := a.Obfuscate(rng(), in)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Records {
		size := regionSize(a, in.Records[i].Point())
		// Count distinct background users within the publishing region
		// (the square around the published center).
		visitors := 0
		for _, bt := range bg {
			for _, br := range bt.Records {
				if geo.FastDistance(br.Point(), r.Point()) <= size { // generous square->circle bound
					visitors++
					break
				}
			}
		}
		if visitors < 3 {
			t.Fatalf("record %d published into a region with %d visitors (size %.0f m)", i, visitors, size)
		}
	}
}

func TestKAnonDenseAreasGetFinerRegions(t *testing.T) {
	a, err := NewKAnon(3, profile.New(kanonBackground(), 0))
	if err != nil {
		t.Fatal(err)
	}
	dense := regionSize(a, downtown)                      // 6 users nearby
	sparse := regionSize(a, geo.Offset(origin, 30000, 0)) // 1 user
	if dense >= sparse {
		t.Fatalf("dense region %v m should be finer than sparse %v m", dense, sparse)
	}
}

func TestKAnonPreservesStructure(t *testing.T) {
	a, err := NewKAnon(3, profile.New(kanonBackground(), 0))
	if err != nil {
		t.Fatal(err)
	}
	in := clustered("victim", downtown, 30)
	out, err := a.Obfuscate(rng(), in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != in.Len() || out.User != in.User {
		t.Fatal("structure changed")
	}
	for i := range in.Records {
		if out.Records[i].TS != in.Records[i].TS {
			t.Fatal("timestamps must be preserved")
		}
	}
}

func TestKAnonDeterministic(t *testing.T) {
	in := clustered("victim", downtown, 30)
	a1, err := NewKAnon(3, profile.New(kanonBackground(), 0))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewKAnon(3, profile.New(kanonBackground(), 0))
	if err != nil {
		t.Fatal(err)
	}
	o1, _ := a1.Obfuscate(rng(), in)
	o2, _ := a2.Obfuscate(rng(), in)
	for i := range o1.Records {
		if o1.Records[i] != o2.Records[i] {
			t.Fatal("KAnon must be deterministic")
		}
	}
}

func TestKAnonHigherKCoarserRegions(t *testing.T) {
	bg := kanonBackground()
	loose, err := NewKAnon(2, profile.New(bg, 0))
	if err != nil {
		t.Fatal(err)
	}
	strict, err := NewKAnon(7, profile.New(bg, 0))
	if err != nil {
		t.Fatal(err)
	}
	if regionSize(loose, downtown) > regionSize(strict, downtown) {
		t.Fatalf("k=2 region %v m coarser than k=7 region %v m",
			regionSize(loose, downtown), regionSize(strict, downtown))
	}
}

func TestKAnonEmptyTrace(t *testing.T) {
	a, err := NewKAnon(3, profile.New(kanonBackground(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Obfuscate(rng(), trace.Trace{}); err == nil {
		t.Fatal("empty trace must error")
	}
}
