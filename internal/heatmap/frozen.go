package heatmap

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"mood/internal/geo"
	"mood/internal/mathx"
	"mood/internal/trace"
)

// Frozen is an immutable snapshot of a Heatmap: the non-empty cells
// sorted by (X, Y) with their weights and the precomputed total. It is
// the comparison-ready form of a mobility profile — the Topsoe
// divergence between two Frozen heatmaps is a merge walk over the two
// sorted supports and allocates nothing, where the map-based Heatmap
// path rebuilds and sorts a union-support map per comparison.
//
// The walk visits the union support in sorted cell order and folds
// probabilities through mathx.TopsoeAccum, so Frozen divergences are
// bit-identical to the dense aligned-vector computation (the test
// oracle), not merely close — the AP-attack argmin and HMC target
// selection depend on that.
//
// A Frozen is safe for concurrent use.
type Frozen struct {
	cells   []geo.Cell // sorted by (X, then Y)
	weights []float64  // aligned with cells
	total   float64
}

// Freeze snapshots h into its sorted-sparse comparison form. Later
// mutations of h do not affect the snapshot.
func (h *Heatmap) Freeze() *Frozen {
	f := &Frozen{
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

// FrozenFromTrace builds the frozen heatmap of t on grid: the bits of
// FromTrace(grid, t).Freeze() without the map. Every record weighs 1, so
// each weight is an exact integer count and the total is exactly n:
// counting the records' cells into a dense array over their bounding box
// and emitting the non-zero entries in (X, Y) order gives the map path's
// cells, weights and total. A box of more than 16·n + 1024 cells (a
// continent-wide trace) takes the map path, so the array stays O(n).
func FrozenFromTrace(grid *geo.Grid, t trace.Trace) *Frozen {
	n := len(t.Records)
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	cells := grow(&s.cells, n)
	var minX, maxX, minY, maxY int64 // an empty trace counts into a one-cell box
	for i := range t.Records {
		c := grid.CellOf(t.Records[i].Point())
		cells[i] = c
		x, y := int64(c.X), int64(c.Y)
		if i == 0 {
			minX, maxX, minY, maxY = x, x, y, y
		}
		minX, maxX, minY, maxY = min(minX, x), max(maxX, x), min(minY, y), max(maxY, y)
	}
	w, h := maxX-minX+1, maxY-minY+1
	if !denseFits(n, w, h) {
		return FromTrace(grid, t).Freeze()
	}
	counts, distinct := grow(&s.counts, int(w*h)), 0
	for _, c := range cells {
		k := (int64(c.X)-minX)*h + int64(c.Y) - minY
		if counts[k] == 0 {
			distinct++
		}
		counts[k]++
	}
	f := &Frozen{cells: make([]geo.Cell, distinct), weights: make([]float64, distinct), total: float64(n)}
	i := 0
	for k, c := range counts {
		if c != 0 {
			f.cells[i] = geo.Cell{X: int32(minX + int64(k)/h), Y: int32(minY + int64(k)%h)}
			f.weights[i] = float64(c)
			counts[k] = 0
			i++
		}
	}
	return f
}

// denseFits reports whether a w×h box of n records' cells holds at most
// 16·n + 1024 cells; the product is tested by division, so it never
// overflows.
func denseFits(n int, w, h int64) bool {
	limit := 16*int64(n) + 1024
	return w <= limit && h <= limit/w
}

// scratch is FrozenFromTrace's pooled working memory: the records' cells
// and a count array over their box, all zero between calls.
type scratch struct {
	cells  []geo.Cell
	counts []uint32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns (*buf)[:n], reallocating when it is too short. It stays
// out of line, so a frozen heatmap's three slices are FrozenFromTrace's
// only allocations.
//
//go:noinline
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// cellLess is the canonical cell order of the merge walks: ascending X,
// then ascending Y.
func cellLess(a, b geo.Cell) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}

// TopCells returns every cell by descending weight, ties broken by
// ascending (X, Y) — Heatmap.TopCells(0)'s order: a stable sort of the
// (X, Y)-sorted support by weight alone.
func (f *Frozen) TopCells() []CellWeight {
	return f.AppendTopCells(make([]CellWeight, 0, len(f.cells)))
}

// AppendTopCells appends TopCells' list to dst.
func (f *Frozen) AppendTopCells(dst []CellWeight) []CellWeight {
	at := len(dst)
	for i, c := range f.cells {
		dst = append(dst, CellWeight{Cell: c, Weight: f.weights[i]})
	}
	slices.SortStableFunc(dst[at:], func(a, b CellWeight) int { return cmp.Compare(b.Weight, a.Weight) })
	return dst
}

// CellIndex returns c's index in the (X, Y)-sorted support, and whether
// the support holds c.
func (f *Frozen) CellIndex(c geo.Cell) (int, bool) {
	i := sort.Search(len(f.cells), func(i int) bool { return !cellLess(f.cells[i], c) })
	return i, i < len(f.cells) && f.cells[i] == c
}

// Total returns the accumulated weight.
func (f *Frozen) Total() float64 { return f.total }

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
	return f.TopsoeBounded(o, math.Inf(1))
}

// TopsoeBounded is the early-exit form of Topsoe for best-so-far scans:
// it abandons the comparison as soon as the partial divergence reaches
// bound. Every Topsoe term is non-negative, so the partial sum only
// grows as the walk proceeds: once it reaches bound, the final
// divergence is guaranteed to reach it too, and the walk returns the
// partial sum immediately. A comparison that completes returns the
// exact divergence (identical to Topsoe); an abandoned one returns a
// partial value >= bound, which the caller's strict < comparison
// discards — verdicts are therefore bit-identical to the unbounded
// scan.
func (f *Frozen) TopsoeBounded(o *Frozen, bound float64) float64 {
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
		if d >= bound {
			return d
		}
	}
	for ; i < len(fc); i++ {
		d = mathx.TopsoeAccum(d, prob(f.weights[i], ft), 0)
		if d >= bound {
			return d
		}
	}
	for ; j < len(oc); j++ {
		d = mathx.TopsoeAccum(d, 0, prob(o.weights[j], ot))
		if d >= bound {
			return d
		}
	}
	return d
}
