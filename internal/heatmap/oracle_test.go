package heatmap

import (
	"sort"

	"mood/internal/geo"
	"mood/internal/mathx"
)

// oracleDistributions is the dense reference path the Frozen and Quant
// walks replaced: the aligned probability vectors of h and o over their
// union support, in the merge walks' cell order.
func oracleDistributions(h, o *Heatmap) (p, q []float64) {
	seen := make(map[geo.Cell]struct{}, len(h.counts)+len(o.counts))
	cells := make([]geo.Cell, 0, len(h.counts)+len(o.counts))
	for _, m := range []map[geo.Cell]float64{h.counts, o.counts} {
		for c := range m {
			if _, ok := seen[c]; !ok {
				seen[c] = struct{}{}
				cells = append(cells, c)
			}
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cellLess(cells[i], cells[j]) })
	p = make([]float64, len(cells))
	q = make([]float64, len(cells))
	for i, c := range cells {
		p[i] = h.Prob(c)
		q[i] = o.Prob(c)
	}
	return p, q
}

// oracleTopsoe is the dense Topsoe divergence between h and o, which
// Frozen.Topsoe must equal bit for bit.
func oracleTopsoe(h, o *Heatmap) float64 {
	p, q := oracleDistributions(h, o)
	return mathx.Topsoe(p, q)
}

// oracleTopCells is the map sort TopCells replaced: every cell, by
// descending weight, ties by ascending (X, Y).
func oracleTopCells(h *Heatmap) []CellWeight {
	out := make([]CellWeight, 0, len(h.counts))
	for c, w := range h.counts {
		out = append(out, CellWeight{Cell: c, Weight: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return cellLess(out[i].Cell, out[j].Cell)
	})
	return out
}
