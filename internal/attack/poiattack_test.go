package attack

import (
	"math"
	"testing"

	"mood/internal/geo"
	"mood/internal/poi"
	"mood/internal/synth"
)

// oraclePOISetDistance is poiSetDistance before the LatGap prune, kept
// verbatim: every anonymous POI is measured against every profile POI.
func oraclePOISetDistance(anon []poi.POI, weights []float64, profile []poi.POI, bound float64) float64 {
	var d float64
	for i, ap := range anon {
		best := math.Inf(1)
		for _, pp := range profile {
			if dd := geo.FastDistance(ap.Center, pp.Center); dd < best {
				best = dd
			}
		}
		d += weights[i] * best
		if d >= bound {
			return d
		}
	}
	return d
}

// TestPOISetDistanceMatchesExhaustive: skipping the profile POIs that
// LatGap rules out leaves every POI-attack distance bit-identical to
// the exhaustive scan, unbounded and at finite best-so-far bounds
// (above, at, below the full distance, and zero), over every pair of
// POI sets of the preset cities at two seeds.
func TestPOISetDistanceMatchesExhaustive(t *testing.T) {
	var sets [][]poi.POI
	for _, seed := range []uint64{3, 4} {
		for _, cfg := range synth.Presets(synth.ScaleTiny, seed) {
			d, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range d.Traces {
				if ps := poi.NewExtractor().Extract(tr); len(ps) > 0 {
					sets = append(sets, ps)
				}
			}
		}
	}
	if len(sets) < 20 {
		t.Fatalf("only %d POI sets: the cities exercise too little", len(sets))
	}
	for _, anon := range sets {
		w := poi.Weights(anon)
		for _, prof := range sets {
			full := oraclePOISetDistance(anon, w, prof, math.Inf(1))
			for _, bound := range []float64{math.Inf(1), full * 2, full, full / 2, 0} {
				got, want := poiSetDistance(anon, w, prof, bound), oraclePOISetDistance(anon, w, prof, bound)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("poiSetDistance(bound %v) = %v, exhaustive %v", bound, got, want)
				}
			}
		}
	}
}
