package heatmap

import (
	"math"
	"sort"

	"mood/internal/geo"
	"mood/internal/mathx"
	"mood/internal/trace"
)

// Frozen is an immutable snapshot of a Heatmap: the non-empty cells
// sorted by (X, Y) with their weights and the precomputed total. It is
// the comparison-ready form of a mobility profile — divergences between
// two Frozen heatmaps are merge walks over the two sorted supports and
// allocate nothing, where the map-based Heatmap path rebuilds and sorts
// a union-support map per comparison.
//
// The walk visits the union support in sorted cell order and folds
// probabilities through the mathx scalar kernels, so Frozen divergences
// are bit-identical to the dense aligned-vector computation (the test
// oracle), not merely close — the AP-attack argmin and HMC target
// selection depend on that.
//
// A Frozen is safe for concurrent use.
type Frozen struct {
	grid    *geo.Grid
	cells   []geo.Cell // sorted by (X, then Y)
	weights []float64  // aligned with cells
	total   float64
}

// Freeze snapshots h into its sorted-sparse comparison form. Later
// mutations of h do not affect the snapshot.
func (h *Heatmap) Freeze() *Frozen {
	f := &Frozen{
		grid:    h.grid,
		cells:   make([]geo.Cell, 0, len(h.counts)),
		weights: make([]float64, len(h.counts)),
		total:   h.total,
	}
	for c := range h.counts {
		f.cells = append(f.cells, c)
	}
	sort.Slice(f.cells, func(i, j int) bool { return cellLess(f.cells[i], f.cells[j]) })
	for i, c := range f.cells {
		f.weights[i] = h.counts[c]
	}
	return f
}

// FrozenFromTrace builds the frozen heatmap of t on grid.
func FrozenFromTrace(grid *geo.Grid, t trace.Trace) *Frozen {
	return FromTrace(grid, t).Freeze()
}

// cellLess is the canonical cell order of the merge walks: ascending X,
// then ascending Y.
func cellLess(a, b geo.Cell) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}

// Grid returns the underlying grid.
func (f *Frozen) Grid() *geo.Grid { return f.grid }

// Total returns the accumulated weight.
func (f *Frozen) Total() float64 { return f.total }

// Cells returns the number of non-empty cells.
func (f *Frozen) Cells() int { return len(f.cells) }

// prob normalises a cell weight against a total, treating an empty
// heatmap as all-zero mass exactly like Heatmap.Prob.
func prob(w, total float64) float64 {
	if total == 0 {
		return 0
	}
	return w / total
}

// Topsoe returns the Topsoe divergence between the normalised
// distributions of f and o, allocation-free.
func (f *Frozen) Topsoe(o *Frozen) float64 {
	return f.TopsoeBounded(o, 1, 0, 1, math.Inf(1))
}

// JensenShannon returns half the Topsoe divergence.
func (f *Frozen) JensenShannon(o *Frozen) float64 { return f.Topsoe(o) / 2 }

// L1 returns the total-variation-style absolute difference between the
// normalised distributions.
func (f *Frozen) L1(o *Frozen) float64 {
	return f.L1Bounded(o, 1, 0, 1, math.Inf(1))
}

// TopsoeBounded is the early-exit form of Topsoe for best-so-far scans.
// The caller is accumulating a weighted score (acc + scale*d) / weight
// and wants to abandon this comparison as soon as that score can no
// longer drop below bound. Because every Topsoe term is non-negative and
// float addition, multiplication by a positive scale and division by a
// positive weight are monotone, the transformed partial score only grows
// as the walk proceeds: once it reaches bound, the final score is
// guaranteed to reach it too, so the walk returns the partial sum
// immediately. A comparison that completes returns the exact divergence
// (identical to Topsoe); an abandoned one returns a partial value whose
// transformed score is >= bound, which the caller's strict < comparison
// discards — verdicts are therefore bit-identical to the unbounded scan.
//
// Plain nearest-profile scans pass scale=1, acc=0, weight=1 and
// bound=bestSoFar.
func (f *Frozen) TopsoeBounded(o *Frozen, scale, acc, weight, bound float64) float64 {
	var d float64
	ft, ot := f.total, o.total
	fc, oc := f.cells, o.cells
	i, j := 0, 0
	for i < len(fc) && j < len(oc) {
		var pi, qi float64
		a, b := fc[i], oc[j]
		switch {
		case a == b:
			pi, qi = prob(f.weights[i], ft), prob(o.weights[j], ot)
			i++
			j++
		case cellLess(a, b):
			pi = prob(f.weights[i], ft)
			i++
		default:
			qi = prob(o.weights[j], ot)
			j++
		}
		d = mathx.TopsoeAccum(d, pi, qi)
		if (acc+scale*d)/weight >= bound {
			return d
		}
	}
	for ; i < len(fc); i++ {
		d = mathx.TopsoeAccum(d, prob(f.weights[i], ft), 0)
		if (acc+scale*d)/weight >= bound {
			return d
		}
	}
	for ; j < len(oc); j++ {
		d = mathx.TopsoeAccum(d, 0, prob(o.weights[j], ot))
		if (acc+scale*d)/weight >= bound {
			return d
		}
	}
	return d
}

// L1Bounded is the early-exit form of L1; see TopsoeBounded for the
// bound semantics (L1 terms are likewise non-negative).
func (f *Frozen) L1Bounded(o *Frozen, scale, acc, weight, bound float64) float64 {
	var d float64
	ft, ot := f.total, o.total
	fc, oc := f.cells, o.cells
	i, j := 0, 0
	for i < len(fc) && j < len(oc) {
		var pi, qi float64
		a, b := fc[i], oc[j]
		switch {
		case a == b:
			pi, qi = prob(f.weights[i], ft), prob(o.weights[j], ot)
			i++
			j++
		case cellLess(a, b):
			pi = prob(f.weights[i], ft)
			i++
		default:
			qi = prob(o.weights[j], ot)
			j++
		}
		d = mathx.L1Accum(d, pi, qi)
		if (acc+scale*d)/weight >= bound {
			return d
		}
	}
	for ; i < len(fc); i++ {
		d = mathx.L1Accum(d, prob(f.weights[i], ft), 0)
		if (acc+scale*d)/weight >= bound {
			return d
		}
	}
	for ; j < len(oc); j++ {
		d = mathx.L1Accum(d, 0, prob(o.weights[j], ot))
		if (acc+scale*d)/weight >= bound {
			return d
		}
	}
	return d
}
