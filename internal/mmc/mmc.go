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
	// radius and count the transitions of the state-visit sequence as
	// it forms. A POI whose LatGap exceeds the radius or reaches bestD
	// cannot be that POI (LatGap never exceeds FastDistance), so the
	// scan skips its distance: the first nearest POI within the radius
	// is never skipped, and when no POI is within it none is assigned,
	// exactly as in the full scan. When a single POI survives the
	// radius test, the full scan's answer is that POI exactly when its
	// distance is within the radius, which SurelyWithin proves
	// unmeasured for most records.
	radius := e.MaxDiameter
	if radius <= 0 {
		radius = poi.DefaultMaxDiameter
	}
	// counts is the n×n transition count matrix, row-major; it becomes
	// the transition matrix in place.
	counts := make([]float64, n*n)
	prev := -1
	for _, r := range t.Records {
		p := r.Point()
		first, survivors := -1, 0
		for i, s := range pois {
			if geo.LatGap(s.Center, p) > radius {
				continue
			}
			if survivors++; survivors > 1 {
				break
			}
			first = i
		}
		best := -1
		switch {
		case survivors == 0:
		case survivors == 1 && geo.SurelyWithin(pois[first].Center, p, radius):
			best = first
		default:
			bestD := math.Inf(1)
			for i := first; i < n; i++ {
				c := pois[i].Center
				if lb := geo.LatGap(c, p); lb > radius || lb >= bestD {
					continue
				}
				if d := geo.FastDistance(c, p); d < bestD {
					best, bestD = i, d
				}
			}
			if !(bestD <= radius) { // a NaN radius assigns nothing
				best = -1
			}
		}
		// Consecutive visits to the same state collapse into one.
		if best >= 0 && best != prev {
			if prev >= 0 {
				counts[prev*n+best]++
			}
			prev = best
		}
	}

	trans := make([][]float64, n)
	for i := range trans {
		row := counts[i*n : (i+1)*n : (i+1)*n]
		var sum float64
		for _, c := range row {
			sum += c
		}
		if sum > 0 {
			for j, c := range row {
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
