// Package mathx collects the numerical routines MooD needs beyond the
// standard library: the Lambert W function (used by the planar-Laplace
// sampler of Geo-Indistinguishability), information-theoretic divergences
// (used by the AP-attack and HMC), summary statistics and deterministic
// random-stream derivation.
package mathx

import (
	"math"
	"sort"
)

// lambertTol is the convergence tolerance of the Halley iterations.
const lambertTol = 1e-12

// LambertWm1 evaluates the secondary real branch W-1(x) for
// x in [-1/e, 0). It returns NaN outside the domain.
//
// The Geo-I inverse CDF uses this branch:
//
//	r = -(1/eps) * (W-1((p-1)/e) + 1)
func LambertWm1(x float64) float64 {
	if x < -1/math.E || x >= 0 {
		return math.NaN()
	}
	// Initial guess. Near the branch point use the square-root series;
	// toward 0- use the asymptotic log expansion.
	var w float64
	if x < -0.1 {
		p := -math.Sqrt(2 * (math.E*x + 1))
		w = -1 + p - p*p/3
	} else {
		l1 := math.Log(-x)
		l2 := math.Log(-l1)
		w = l1 - l2 + l2/l1
	}
	return halley(x, w)
}

// halley refines w so that w*exp(w) = x using Halley's method.
func halley(x, w float64) float64 {
	for i := 0; i < 64; i++ {
		ew := math.Exp(w)
		f := w*ew - x
		if f == 0 {
			return w
		}
		wp1 := w + 1
		denom := ew*wp1 - (w+2)*f/(2*wp1)
		dw := f / denom
		w -= dw
		if math.Abs(dw) <= lambertTol*(1+math.Abs(w)) {
			return w
		}
	}
	return w
}

// TopsoeAccum folds one aligned probability pair (pi, qi) into a running
// Topsoe sum d and returns the new sum. Both contributions are
// non-negative, so a partial sum is a lower bound on the final divergence
// — the property the early-exit scans in attack and lppm rely on.
//
// This is the single scalar kernel behind every Topsoe path in the repo
// (the dense Topsoe below and the sorted-sparse merge walk of
// heatmap.Frozen): because both walk their supports in the same sorted
// cell order and fold through the exact same float operations, their
// results are bit-identical, not merely close.
func TopsoeAccum(d, pi, qi float64) float64 {
	m := (pi + qi) / 2
	if pi > 0 {
		d += pi * math.Log(pi/m)
	}
	if qi > 0 {
		d += qi * math.Log(qi/m)
	}
	return d
}

// Topsoe returns the Topsoe divergence between two aligned discrete
// distributions: D(p||m) + D(q||m) with m the midpoint distribution.
// It is symmetric, finite for any pair of distributions, and equals
// twice the Jensen-Shannon divergence. The AP-attack uses it to compare
// mobility heatmaps.
func Topsoe(p, q []float64) float64 {
	var d float64
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	for i := 0; i < n; i++ {
		var pi, qi float64
		if i < len(p) {
			pi = p[i]
		}
		if i < len(q) {
			qi = q[i]
		}
		d = TopsoeAccum(d, pi, qi)
	}
	return d
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It copies xs and is safe
// on unsorted input; it returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
