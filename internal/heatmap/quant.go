package heatmap

import (
	"math"

	"mood/internal/geo"
)

// This file is the float32 half of the Topsoe scans: a quantized
// companion form of Frozen plus an approximate Topsoe walk used as a
// *pruning pass* (Prune) by the AP scans in internal/attack and HMC's
// target scan in internal/lppm. The
// contract is asymmetric by design — the quantized value is only ever
// trusted as a lower bound (after subtracting a generous certified
// slack), and every verdict still comes from the exact float64 kernel
// in frozen.go, so verdicts stay bit-identical to an exhaustive exact
// scan while most losing profiles are rejected at a fraction of the
// exact walk's cost.

// Quant is the float32-quantized form of a Frozen heatmap: the same
// sorted cells, the normalized probabilities rounded to float32, and
// each probability's natural log precomputed at quantization time. A
// quantized Topsoe walk therefore costs one fastLog32 per shared cell
// and no divisions at all, where the exact kernel pays two divisions
// and up to two math.Log calls per cell.
//
// A Quant is immutable and safe for concurrent use.
type Quant struct {
	cells []geo.Cell // shared with the source Frozen (sorted X, then Y)
	probs []float32  // normalized cell probabilities (weight/total)
	logs  []float32  // ln(probs[i]), precomputed; 0 where probs[i] == 0
}

// Quantize builds the float32 companion of f. An empty heatmap
// quantizes to all-zero mass, matching prob()'s view of a zero total.
func (f *Frozen) Quantize() *Quant {
	q := &Quant{
		cells: f.cells,
		probs: make([]float32, len(f.cells)),
		logs:  make([]float32, len(f.cells)),
	}
	for i, w := range f.weights {
		p := prob(w, f.total)
		q.probs[i] = float32(p)
		if p > 0 {
			// The stored log uses the same fastLog32 the merge walk
			// applies to midpoints, so a shared cell with equal
			// probabilities contributes exactly zero — the two
			// approximation errors cancel instead of accumulating.
			q.logs[i] = fastLog32(q.probs[i])
		}
	}
	return q
}

// Cells returns the support size.
func (q *Quant) Cells() int { return len(q.cells) }

// MemBytes estimates the quantized footprint (cells + probs + logs),
// used by the batch scans to size cache-resident profile blocks.
func (q *Quant) MemBytes() int { return len(q.cells) * 16 }

// ln2f is ln 2 rounded to float32 — the exact Topsoe contribution of a
// cell present on only one side (p·log(p/(p/2)) = p·ln 2).
const ln2f = float32(0.69314718055994530942)

// fastLog32 approximates the natural log of a positive, finite, normal
// float32: the exponent is peeled from the bit pattern and the
// mantissa's log comes from a 4-term atanh series — for m in [1,2),
// ln(m) = 2·atanh(t) with t = (m−1)/(m+1) ≤ 1/3, so truncating after
// t⁷/7 leaves under 1.2e-5 absolute error; float32 rounding adds a few
// ulp more. QuantTopsoeSlack budgets two orders of magnitude above
// that per unit of probability mass. Inputs are cell probabilities
// (≥ 1/total, far above the subnormal range).
func fastLog32(x float32) float32 {
	bits := math.Float32bits(x)
	e := int32(bits>>23) - 127
	m := math.Float32frombits(bits&0x007fffff | 0x3f800000) // mantissa in [1,2)
	t := (m - 1) / (m + 1)
	t2 := t * t
	l := 2 * t * (1 + t2*(1.0/3+t2*(1.0/5+t2*(1.0/7))))
	return l + float32(e)*ln2f
}

// TopsoeQuantBounded accumulates the quantized Topsoe divergence over
// the merged supports of q and o, returning as soon as the partial sum
// reaches bound. Every term is non-negative, so the sum is monotone:
// a return ≥ bound certifies the full approximation would reach bound
// too, and a return below it is the completed approximation — within
// QuantTopsoeSlack of the exact Topsoe divergence either way, because
// an early-exited partial only ever under-states the total.
func (q *Quant) TopsoeQuantBounded(o *Quant, bound float32) float32 {
	var d float32
	qc, oc := q.cells, o.cells
	i, j := 0, 0
	for i < len(qc) && j < len(oc) {
		a, b := qc[i], oc[j]
		switch {
		case a == b:
			p, pp := q.probs[i], o.probs[j]
			if p > 0 || pp > 0 {
				lm := fastLog32((p + pp) / 2)
				if p > 0 {
					d += p * (q.logs[i] - lm)
				}
				if pp > 0 {
					d += pp * (o.logs[j] - lm)
				}
			}
			i++
			j++
		case cellLess(a, b):
			d += q.probs[i] * ln2f
			i++
		default:
			d += o.probs[j] * ln2f
			j++
		}
		if d >= bound {
			return d
		}
	}
	for ; i < len(qc); i++ {
		d += q.probs[i] * ln2f
		if d >= bound {
			return d
		}
	}
	for ; j < len(oc); j++ {
		d += o.probs[j] * ln2f
		if d >= bound {
			return d
		}
	}
	return d
}

// QuantTopsoeSlack bounds |completed TopsoeQuantBounded − exact Topsoe|
// for a merged support of n cells. Three error sources, each budgeted
// with roughly two orders of magnitude to spare: float32 input rounding
// (≤ 2⁻²³ relative per probability), the fastLog32 approximation
// (≤ 2e-5 absolute per log, weighted by total probability mass ≤ 2),
// and float32 accumulation of n non-negative terms (≤ n ulps of a sum
// ≤ 2·ln 2). Pruning with this slack trades a little speed for zero
// risk: a profile is only skipped when its certified lower bound
// already loses, and TestQuantSlackSound fails if the observed error on
// random and adversarial pairs ever exceeds half this budget.
func QuantTopsoeSlack(n int) float64 { return 1e-4 + 2e-7*float64(n) }

// Prune reports whether the float32 quantized pass certifies that the
// exact Topsoe divergence between q's and o's source heatmaps cannot
// drop below bound, so a scan that keeps only scores below bound may
// skip the exact float64 walk. A completed quantized walk is within
// QuantTopsoeSlack of the exact value (enforced with margin by
// TestQuantSlackSound) and an early-exited one only under-states it, so
// approx−slack lower-bounds the exact score: pruning can cost speed,
// never bits. The AP scans and HMC's target scan share it.
func (q *Quant) Prune(o *Quant, bound float64) bool {
	if math.IsInf(bound, 1) {
		return false
	}
	slack := QuantTopsoeSlack(len(q.cells) + len(o.cells))
	return float64(q.TopsoeQuantBounded(o, float32(slack+bound)))-slack >= bound
}
