package lppm

import (
	"testing"
	"testing/quick"

	"mood/internal/geo"
	"mood/internal/heatmap"
	"mood/internal/mathx"
	"mood/internal/metrics"
	"mood/internal/trace"
)

// randomTrace builds a pseudo-random but valid trace from quick's
// entropy: a wander around the origin.
func randomTrace(seed int64, n int) trace.Trace {
	rng := mathx.NewRand(uint64(seed))
	rs := make([]trace.Record, n)
	p := origin
	ts := int64(0)
	for i := range rs {
		p = geo.Offset(p, (rng.Float64()-0.5)*400, (rng.Float64()-0.5)*400)
		ts += int64(30 + rng.Intn(600))
		rs[i] = trace.At(p, ts)
	}
	return trace.Trace{User: "prop", Records: rs}
}

func TestPropertyGeoIRecordCountAndTimesInvariant(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		in := randomTrace(seed, n)
		out, err := NewGeoI().Obfuscate(mathx.NewRand(uint64(seed)), in)
		if err != nil {
			return false
		}
		if out.Len() != in.Len() {
			return false
		}
		for i := range in.Records {
			if out.Records[i].TS != in.Records[i].TS {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTRLTriplesRecords(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		in := randomTrace(seed, n)
		out, err := NewTRL().Obfuscate(mathx.NewRand(uint64(seed)), in)
		if err != nil {
			return false
		}
		return out.Len() == 3*in.Len() && out.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyChainDistortionAccumulates(t *testing.T) {
	// Composing Geo-I after Geo-I must on average distort at least as
	// much as a single pass (fixed seeds keep this deterministic).
	in := randomTrace(99, 400)
	single := NewGeoI()
	double := Chain{Mechs: []Mechanism{NewGeoI(), NewGeoI()}}

	var sSum, dSum float64
	for i := uint64(0); i < 10; i++ {
		s, err := single.Obfuscate(mathx.NewRand(i), in)
		if err != nil {
			t.Fatal(err)
		}
		d, err := double.Obfuscate(mathx.NewRand(i), in)
		if err != nil {
			t.Fatal(err)
		}
		sSum += metrics.STD(in, s)
		dSum += metrics.STD(in, d)
	}
	if dSum <= sSum {
		t.Fatalf("double Geo-I distorts less (%v) than single (%v)", dSum, sSum)
	}
}

func TestPropertyHeatmapMassEqualsRecords(t *testing.T) {
	grid := geo.NewGrid(origin, 800)
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		in := randomTrace(seed, n)
		hm := heatmap.FromTrace(grid, in)
		return hm.Total() == float64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHMCMassConserved(t *testing.T) {
	// HMC translates cells; it must never create or destroy records,
	// and the per-cell mass multiset is preserved up to cell merging.
	h, err := NewHMC(800, hmcBackground())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%100) + 2
		in := randomTrace(seed, n)
		out, err := h.Obfuscate(mathx.NewRand(uint64(seed)), in)
		if err != nil {
			return false
		}
		if out.Len() != in.Len() {
			return false
		}
		inHM := heatmap.FromTrace(h.grid, in)
		outHM := heatmap.FromTrace(h.grid, out)
		return outHM.Total() == inHM.Total() && outHM.Cells() <= inHM.Cells()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
