// Package mmc builds Mobility Markov Chains — the mobility-profile model
// of the PIT-attack [16]. States are the user's POIs ordered by weight;
// edges carry the empirical probability of moving from one POI to
// another. The stats-prox distance combines a stationary distance
// (geography weighted by state importance) with a proximity distance
// (transition-structure similarity).
package mmc

import (
	"fmt"
	"math"

	"mood/internal/geo"
	"mood/internal/poi"
	"mood/internal/trace"
)

// Chain is a Mobility Markov Chain: POI states plus a row-stochastic
// transition matrix.
type Chain struct {
	// States are the POIs ordered by descending record weight.
	States []poi.POI
	// Trans[i][j] is the probability of moving from state i to state j.
	Trans [][]float64
	// Weights[i] is the record-mass share of state i (sums to 1).
	Weights []float64
}

// Build constructs the MMC of trace t using extractor e. It returns an
// empty chain (States == nil) when no POIs can be extracted — callers
// treat that as "no profile".
func Build(e poi.Extractor, t trace.Trace) Chain {
	return BuildFromPOIs(e, e.Extract(t), t)
}

// BuildFromPOIs constructs the MMC over POIs already extracted from t
// with e's parameters. The batch identification layer extracts POIs
// once per trace and shares them between the POI- and PIT-attacks;
// Build(e, t) is exactly BuildFromPOIs(e, e.Extract(t), t).
func BuildFromPOIs(e poi.Extractor, pois []poi.POI, t trace.Trace) Chain {
	if len(pois) == 0 {
		return Chain{}
	}
	n := len(pois)

	// Assign every record to its nearest POI within the acceptance
	// radius, producing the state-visit sequence. A POI whose LatGap
	// exceeds the radius or reaches bestD cannot be that POI (LatGap
	// never exceeds FastDistance), so the scan skips its distance: the
	// first nearest POI within the radius is never skipped, and when no
	// POI is within it none is assigned, exactly as in the full scan.
	radius := e.MaxDiameter
	if radius <= 0 {
		radius = poi.DefaultMaxDiameter
	}
	seq := make([]int, 0, t.Len())
	for _, r := range t.Records {
		best, bestD := -1, math.Inf(1)
		p := r.Point()
		for i, s := range pois {
			if lb := geo.LatGap(s.Center, p); lb > radius || lb >= bestD {
				continue
			}
			if d := geo.FastDistance(s.Center, p); d < bestD {
				best, bestD = i, d
			}
		}
		if best >= 0 && bestD <= radius {
			// Collapse consecutive visits to the same state.
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
			// Absorbing or never-left state: self-loop keeps the matrix
			// stochastic.
			row[i] = 1
		}
		trans[i] = row
	}

	return Chain{States: pois, Trans: trans, Weights: poi.Weights(pois)}
}

// Empty reports whether the chain has no states.
func (c Chain) Empty() bool { return len(c.States) == 0 }

// NumStates returns the number of POI states.
func (c Chain) NumStates() int { return len(c.States) }

// Stationary returns the stationary distribution of the chain computed
// by power iteration from the weight vector. For reducible chains this
// converges to a stationary point that respects the starting mass, which
// is the behaviour the attack needs (importance of places).
func (c Chain) Stationary() []float64 {
	n := len(c.States)
	if n == 0 {
		return nil
	}
	pi := make([]float64, n)
	copy(pi, c.Weights)
	next := make([]float64, n)
	for iter := 0; iter < 200; iter++ {
		for j := 0; j < n; j++ {
			next[j] = 0
		}
		for i := 0; i < n; i++ {
			if pi[i] == 0 {
				continue
			}
			row := c.Trans[i]
			for j := 0; j < n; j++ {
				next[j] += pi[i] * row[j]
			}
		}
		var delta float64
		for j := 0; j < n; j++ {
			delta += math.Abs(next[j] - pi[j])
		}
		pi, next = next, pi
		if delta < 1e-10 {
			break
		}
	}
	return pi
}

// Validate checks that the transition matrix is square and row-stochastic.
func (c Chain) Validate() error {
	n := len(c.States)
	if len(c.Trans) != n {
		return fmt.Errorf("mmc: %d states but %d transition rows", n, len(c.Trans))
	}
	for i, row := range c.Trans {
		if len(row) != n {
			return fmt.Errorf("mmc: row %d has %d columns, want %d", i, len(row), n)
		}
		var sum float64
		for _, p := range row {
			if p < 0 || p > 1+1e-9 {
				return fmt.Errorf("mmc: row %d has probability %v out of range", i, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("mmc: row %d sums to %v", i, sum)
		}
	}
	return nil
}

// directedStationary measures how far a's important places are from
// b's: for every state of a, the geographic distance to the closest
// state of b, weighted by a's stationary distribution pia — precomputed
// so scans comparing one chain against many profiles (the PIT-attack
// inner loop) run the expensive power iteration once per chain, not
// once per pair.
func directedStationary(a, b Chain, pia []float64) float64 {
	var d float64
	for i, s := range a.States {
		best := math.Inf(1)
		for _, t := range b.States {
			if geo.LatGap(s.Center, t.Center) >= best {
				continue // cannot be nearer than best
			}
			if dd := geo.FastDistance(s.Center, t.Center); dd < best {
				best = dd
			}
		}
		d += pia[i] * best
	}
	return d
}

// directedProximity compares transition structure after matching each
// state of a to its nearest state of b: the L1 difference between the
// matched transition probabilities, weighted by a's stationary mass.
func directedProximity(a, b Chain, pia []float64) float64 {
	match := make([]int, len(a.States))
	for i, s := range a.States {
		best, bestD := 0, math.Inf(1)
		for j, t := range b.States {
			if geo.LatGap(s.Center, t.Center) >= bestD {
				continue // cannot be nearer than bestD
			}
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

// meterScale converts stationary displacement to the proximity scale:
// 1 km of stationary displacement weighs as much as a full unit of
// transition-probability difference.
const meterScale = 1000.0

// StatsProxBounded is the PIT-attack's stats-prox distance: the
// symmetrised stationary distance (geography weighted by state
// importance, normalised by a city-scale constant) plus the symmetrised
// proximity distance (transition-structure similarity), +Inf when either
// chain is empty. The caller precomputes the stationary distributions,
// and the best-so-far early exit returns the partial value once the
// stationary part alone reaches bound: both components are
// non-negative, so the proximity part cannot bring the total back
// below it. A comparison that completes returns the exact distance, so
// a nearest-profile scan picks the same chain either way.
func StatsProxBounded(a, b Chain, pia, pib []float64, bound float64) float64 {
	if a.Empty() || b.Empty() {
		return math.Inf(1)
	}
	sd := (directedStationary(a, b, pia) + directedStationary(b, a, pib)) / 2
	if math.IsInf(sd, 1) {
		return math.Inf(1)
	}
	if partial := sd / meterScale; partial >= bound {
		return partial
	}
	pd := (directedProximity(a, b, pia) + directedProximity(b, a, pib)) / 2
	if math.IsInf(pd, 1) {
		return math.Inf(1)
	}
	return sd/meterScale + pd
}
