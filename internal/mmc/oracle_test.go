package mmc

import (
	"fmt"
	"math"
	"testing"

	"mood/internal/geo"
	"mood/internal/mathx"
	"mood/internal/poi"
	"mood/internal/synth"
	"mood/internal/trace"
)

// The exhaustive scans the LatGap prune replaced, kept verbatim as
// oracles: every record and state is measured against every POI.

func oracleBuildFromPOIs(e poi.Extractor, pois []poi.POI, t trace.Trace) Chain {
	if len(pois) == 0 {
		return Chain{}
	}
	n := len(pois)
	radius := e.MaxDiameter
	if radius <= 0 {
		radius = poi.DefaultMaxDiameter
	}
	seq := make([]int, 0, t.Len())
	for _, r := range t.Records {
		best, bestD := -1, math.Inf(1)
		p := r.Point()
		for i, s := range pois {
			if d := geo.FastDistance(s.Center, p); d < bestD {
				best, bestD = i, d
			}
		}
		if best >= 0 && bestD <= radius {
			if len(seq) == 0 || seq[len(seq)-1] != best {
				seq = append(seq, best)
			}
		}
	}
	counts := make([][]float64, n)
	for i := range counts {
		counts[i] = make([]float64, n)
	}
	for i := 1; i < len(seq); i++ {
		counts[seq[i-1]][seq[i]]++
	}
	trans := make([][]float64, n)
	for i := range counts {
		row := make([]float64, n)
		var sum float64
		for _, c := range counts[i] {
			sum += c
		}
		if sum > 0 {
			for j, c := range counts[i] {
				row[j] = c / sum
			}
		} else {
			row[i] = 1
		}
		trans[i] = row
	}
	return Chain{States: pois, Trans: trans, Weights: poi.Weights(pois)}
}

func oracleDirectedStationary(a, b Chain, pia []float64) float64 {
	var d float64
	for i, s := range a.States {
		best := math.Inf(1)
		for _, t := range b.States {
			if dd := geo.FastDistance(s.Center, t.Center); dd < best {
				best = dd
			}
		}
		d += pia[i] * best
	}
	return d
}

func oracleDirectedProximity(a, b Chain, pia []float64) float64 {
	match := make([]int, len(a.States))
	for i, s := range a.States {
		best, bestD := 0, math.Inf(1)
		for j, t := range b.States {
			if d := geo.FastDistance(s.Center, t.Center); d < bestD {
				best, bestD = j, d
			}
		}
		match[i] = best
	}
	var d float64
	for i := range a.States {
		for k := range a.States {
			diff := math.Abs(a.Trans[i][k] - b.Trans[match[i]][match[k]])
			d += pia[i] * diff
		}
	}
	return d
}

func oracleStatsProxBounded(a, b Chain, pia, pib []float64, bound float64) float64 {
	if a.Empty() || b.Empty() {
		return math.Inf(1)
	}
	sd := (oracleDirectedStationary(a, b, pia) + oracleDirectedStationary(b, a, pib)) / 2
	if math.IsInf(sd, 1) {
		return math.Inf(1)
	}
	if partial := sd / meterScale; partial >= bound {
		return partial
	}
	pd := (oracleDirectedProximity(a, b, pia) + oracleDirectedProximity(b, a, pib)) / 2
	if math.IsInf(pd, 1) {
		return math.Inf(1)
	}
	return sd/meterScale + pd
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// oracleCities are the seeded synthetic cities the parity tests scan:
// every preset at tiny scale, two seeds each.
func oracleCities(t *testing.T) []trace.Trace {
	t.Helper()
	var ts []trace.Trace
	for _, seed := range []uint64{1, 2} {
		for _, cfg := range synth.Presets(synth.ScaleTiny, seed) {
			d, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts = append(ts, d.Traces...)
		}
	}
	return ts
}

// TestBuildFromPOIsMatchesExhaustive: skipping the POIs LatGap rules
// out leaves every chain — states, transitions, weights — and every
// stats-prox distance between chains bit-identical to the exhaustive
// scans, at an unbounded and at finite best-so-far bounds.
func TestBuildFromPOIsMatchesExhaustive(t *testing.T) {
	e := extractor()
	var chains []Chain
	for _, tr := range oracleCities(t) {
		pois := e.Extract(tr)
		got, want := BuildFromPOIs(e, pois, tr), oracleBuildFromPOIs(e, pois, tr)
		if len(got.States) != len(want.States) || !sameBits(got.Weights, want.Weights) ||
			len(got.Trans) != len(want.Trans) {
			t.Fatalf("%s: chain shape differs from the exhaustive build", tr.User)
		}
		for i := range got.States {
			if got.States[i] != want.States[i] || !sameBits(got.Trans[i], want.Trans[i]) {
				t.Fatalf("%s: state %d differs from the exhaustive build: %v vs %v",
					tr.User, i, got.Trans[i], want.Trans[i])
			}
		}
		if !got.Empty() {
			chains = append(chains, got)
		}
	}
	if len(chains) < 20 {
		t.Fatalf("only %d non-empty chains: the cities exercise too little", len(chains))
	}
	pis := make([][]float64, len(chains))
	for i, c := range chains {
		pis[i] = c.Stationary()
	}
	for i, a := range chains {
		for j, b := range chains {
			full := oracleStatsProxBounded(a, b, pis[i], pis[j], math.Inf(1))
			for _, bound := range []float64{math.Inf(1), full, full / 2, full * 2, 0} {
				got := StatsProxBounded(a, b, pis[i], pis[j], bound)
				want := oracleStatsProxBounded(a, b, pis[i], pis[j], bound)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("StatsProxBounded(%d, %d, bound %v) = %v, exhaustive %v", i, j, bound, got, want)
				}
			}
		}
	}
}

// TestBuildFromPOIsMatchesExhaustiveOnEdgeCases: the single-survivor
// shortcut and the pruned scan agree with the exhaustive build on hand
// placed POIs — latitude bands that hold exactly one POI (records in,
// on and past the radius, east and west of it, and at the band's edge
// where SurelyWithin's L1 bound is tightest), a NaN-centred POI
// beside them and alone, NaN records — and on random POI layouts at
// radii from a few meters to kilometers.
func TestBuildFromPOIsMatchesExhaustiveOnEdgeCases(t *testing.T) {
	check := func(name string, e poi.Extractor, pois []poi.POI, tr trace.Trace) {
		t.Helper()
		got, want := BuildFromPOIs(e, pois, tr), oracleBuildFromPOIs(e, pois, tr)
		if len(got.Trans) != len(want.Trans) || !sameBits(got.Weights, want.Weights) {
			t.Fatalf("%s: chain shape differs from the exhaustive build", name)
		}
		for i := range got.Trans {
			if !sameBits(got.Trans[i], want.Trans[i]) {
				t.Fatalf("%s: state %d: %v, exhaustive %v", name, i, got.Trans[i], want.Trans[i])
			}
		}
	}
	e := extractor()
	radius := e.MaxDiameter
	a := geo.Point{Lat: 45.76, Lon: 4.83}
	b := geo.Offset(a, 0, 1200) // a's, b's and c's bands never overlap
	c := geo.Offset(a, 0, -1200)
	at := func(p geo.Point, dx float64) geo.Point { return geo.Offset(p, dx, 0) }
	var recs []trace.Record
	add := func(p geo.Point) {
		recs = append(recs, trace.Record{Lat: p.Lat, Lon: p.Lon, TS: int64(len(recs)) * 60})
	}
	for _, dx := range []float64{0, 50, radius * 0.7, radius, radius * (1 - 1e-12), radius * 1.3, -radius, -3 * radius} {
		add(at(a, dx))
		add(at(b, dx))
	}
	// Exactly on the radius as FastDistance measures it, and one ulp out.
	east := at(a, radius)
	for geo.FastDistance(a, east) > radius {
		east.Lon = math.Nextafter(east.Lon, a.Lon)
	}
	add(east)
	add(geo.Point{Lat: east.Lat, Lon: math.Nextafter(east.Lon, 180)})
	// Just inside a's band and just past the radius, a few meters east:
	// the L1 bound is within 1 % of the distance there.
	// Each sits between visits to b, which also moves to c, so
	// assigning it would shift b's transition row.
	add(b)
	add(geo.Offset(a, radius*0.005, radius*(1-1e-6)))
	add(b)
	add(c)
	add(b)
	add(geo.Offset(a, -radius*0.005, -radius*(1-1e-6)))
	add(b)
	add(geo.Point{Lat: math.NaN(), Lon: a.Lon})
	add(a)
	tr := trace.Trace{User: "edge", Records: recs}

	nanPOI := poi.POI{Center: geo.Point{Lat: math.NaN(), Lon: a.Lon}, Records: 1}
	pa, pb, pc := poi.POI{Center: a, Records: 3}, poi.POI{Center: b, Records: 2}, poi.POI{Center: c, Records: 1}
	for name, pois := range map[string][]poi.POI{
		"one POI a band":   {pa, pb, pc},
		"NaN beside them":  {pa, nanPOI, pb, pc},
		"NaN first":        {nanPOI, pa, pb, pc},
		"NaN alone":        {nanPOI},
		"one POI in total": {pb},
	} {
		check(name, e, pois, tr)
	}

	rng := mathx.NewRand(71)
	for round := 0; round < 300; round++ {
		e := extractor()
		e.MaxDiameter = math.Exp(rng.Float64()*7) + 1 // 2 m to 1.1 km
		pois := make([]poi.POI, 1+rng.Intn(6))
		for i := range pois {
			pois[i] = poi.POI{Center: geo.Offset(a, rng.NormFloat64()*800, rng.NormFloat64()*800), Records: len(pois) - i}
		}
		recs := make([]trace.Record, 200)
		for i := range recs {
			p := geo.Offset(pois[rng.Intn(len(pois))].Center, rng.NormFloat64()*e.MaxDiameter, rng.NormFloat64()*e.MaxDiameter)
			recs[i] = trace.Record{Lat: p.Lat, Lon: p.Lon, TS: int64(i) * 60}
		}
		check(fmt.Sprintf("random layout %d", round), e, pois, trace.Trace{User: "random", Records: recs})
	}
}
