// Package heatmap aggregates mobility traces into spatial histograms
// over a fixed grid — the mobility-profile model of the AP-attack [22]
// and the substrate of the HMC protection mechanism [23].
//
// A heatmap counts the records of a trace per grid cell; normalising the
// counts yields a probability distribution over cells. The Topsoe
// divergence is computed on its comparison forms, Frozen (exact) and
// Quant (the AP scans' float32 prune).
package heatmap

import (
	"mood/internal/geo"
	"mood/internal/trace"
)

// DefaultCellSize is the paper's AP-attack / HMC cell size (800 m).
const DefaultCellSize = 800.0

// Heatmap is a sparse record-count histogram over grid cells.
type Heatmap struct {
	grid   *geo.Grid
	counts map[geo.Cell]float64
	total  float64
}

// New returns an empty heatmap over the given grid.
func New(grid *geo.Grid) *Heatmap {
	return &Heatmap{grid: grid, counts: make(map[geo.Cell]float64)}
}

// FromTrace builds the heatmap of t on grid.
func FromTrace(grid *geo.Grid, t trace.Trace) *Heatmap {
	h := New(grid)
	for _, r := range t.Records {
		h.Add(r.Point(), 1)
	}
	return h
}

// Grid returns the underlying grid.
func (h *Heatmap) Grid() *geo.Grid { return h.grid }

// Add accumulates weight w at point p.
func (h *Heatmap) Add(p geo.Point, w float64) {
	h.counts[h.grid.CellOf(p)] += w
	h.total += w
}

// AddCell accumulates weight w in cell c directly.
func (h *Heatmap) AddCell(c geo.Cell, w float64) {
	h.counts[c] += w
	h.total += w
}

// Total returns the accumulated weight.
func (h *Heatmap) Total() float64 { return h.total }

// Cells returns the number of non-empty cells.
func (h *Heatmap) Cells() int { return len(h.counts) }

// Prob returns the normalised probability mass of cell c.
func (h *Heatmap) Prob(c geo.Cell) float64 {
	if h.total == 0 {
		return 0
	}
	return h.counts[c] / h.total
}

// CellWeight pairs a cell with its weight; TopCells returns these.
type CellWeight struct {
	Cell   geo.Cell
	Weight float64
}

// TopCells returns up to k cells by descending weight (all cells when
// k <= 0), with deterministic tie-breaking on cell coordinates.
func (h *Heatmap) TopCells(k int) []CellWeight {
	out := h.Freeze().TopCells()
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
