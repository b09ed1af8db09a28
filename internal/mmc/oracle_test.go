package mmc

import (
	"math"
	"testing"

	"mood/internal/geo"
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
