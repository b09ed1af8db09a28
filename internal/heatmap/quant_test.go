package heatmap

import (
	"math"
	"testing"

	"mood/internal/geo"
	"mood/internal/mathx"
)

// TestQuantSlackSound is the certificate behind the AP scans' pruning
// pass: on randomized sparse heatmap pairs — overlapping, disjoint,
// empty and identical supports — the completed quantized Topsoe walk
// must stay within *half* the published slack of the exact float64
// kernel. The prune rule subtracts the full slack
// before comparing, so holding at half the budget here means pruning
// decisions carry at least a 2× certified margin on top of the ~100×
// the slack constants already budget over the analytic error bounds.
func TestQuantSlackSound(t *testing.T) {
	rng := mathx.NewRand(7)
	inf := float32(math.Inf(1))
	check := func(a, b *Frozen) {
		qa, qb := a.Quantize(), b.Quantize()
		n := qa.Cells() + qb.Cells()

		exactT := a.Topsoe(b)
		approxT := float64(qa.TopsoeQuantBounded(qb, inf))
		if diff := math.Abs(exactT - approxT); diff > QuantTopsoeSlack(n)/2 {
			t.Fatalf("Topsoe quant error %.3g exceeds half the slack %.3g (n=%d, exact=%g)",
				diff, QuantTopsoeSlack(n), n, exactT)
		}
	}

	// Overlapping random supports, varied density.
	for i := 0; i < 300; i++ {
		check(randomHeatmap(rng, 1+rng.Intn(60), 12).Freeze(),
			randomHeatmap(rng, 1+rng.Intn(60), 12).Freeze())
	}
	// Disjoint supports: single-sided terms only (p·ln 2 per cell).
	for i := 0; i < 50; i++ {
		a := randomHeatmap(rng, 1+rng.Intn(30), 6)
		b := randomHeatmap(rng, 1+rng.Intn(30), 6)
		bf := New(grid())
		for c, w := range b.counts {
			bf.AddCell(geo.Cell{X: c.X + 100, Y: c.Y + 100}, w)
		}
		check(a.Freeze(), bf.Freeze())
	}
	// Identical heatmaps: the divergence is exactly zero, and the
	// quantized walk must agree exactly too (shared cells cancel).
	for i := 0; i < 50; i++ {
		a := randomHeatmap(rng, 1+rng.Intn(30), 8).Freeze()
		qa := a.Quantize()
		if d := qa.TopsoeQuantBounded(qa, inf); d != 0 {
			t.Fatalf("quant Topsoe of identical heatmaps = %g, want exactly 0", d)
		}
	}
	// Empty against non-empty: all-zero mass on one side.
	check(New(grid()).Freeze(), randomHeatmap(rng, 10, 6).Freeze())
	check(New(grid()).Freeze(), New(grid()).Freeze())
}

// TestPruneSound pins Prune's contract at the bounds where it matters:
// a profile may be pruned only when its exact divergence reaches the
// bound, so a bound just above the exact value (a scan that must still
// see this profile) is never pruned, while a bound well below it is.
func TestPruneSound(t *testing.T) {
	rng := mathx.NewRand(17)
	for i := 0; i < 300; i++ {
		a := randomHeatmap(rng, 1+rng.Intn(60), 12).Freeze()
		b := randomHeatmap(rng, 1+rng.Intn(60), 12).Freeze()
		qa, qb := a.Quantize(), b.Quantize()
		exact := a.Topsoe(b)
		if qa.Prune(qb, math.Nextafter(exact, math.Inf(1))) {
			t.Fatalf("pair %d: pruned at nextUp of its exact divergence %g", i, exact)
		}
		if qa.Prune(qb, math.Inf(1)) {
			t.Fatalf("pair %d: pruned against an infinite bound", i)
		}
		slack := QuantTopsoeSlack(qa.Cells() + qb.Cells())
		if low := exact - 4*slack; low > 0 && !qa.Prune(qb, low) {
			t.Fatalf("pair %d: not pruned at %g, %g below its exact divergence %g", i, low, 4*slack, exact)
		}
	}
}

// TestQuantBoundedMonotone pins the early-exit contract: a walk cut by
// a finite bound returns a partial sum that never exceeds the full
// approximation — the prune pass treats partials as lower bounds.
func TestQuantBoundedMonotone(t *testing.T) {
	rng := mathx.NewRand(23)
	inf := float32(math.Inf(1))
	for i := 0; i < 200; i++ {
		a := randomHeatmap(rng, 1+rng.Intn(40), 10).Freeze().Quantize()
		b := randomHeatmap(rng, 1+rng.Intn(40), 10).Freeze().Quantize()
		full := a.TopsoeQuantBounded(b, inf)
		bound := full * float32(rng.Float64())
		partial := a.TopsoeQuantBounded(b, bound)
		if partial > full {
			t.Fatalf("bounded walk returned %g above the full approximation %g", partial, full)
		}
		if full >= bound && partial < bound {
			t.Fatalf("walk with bound %g stopped at %g without certifying (full=%g)", bound, partial, full)
		}
	}
}

// TestFastLog32Accuracy pins the polynomial log's error bound across
// the probability range the kernels feed it (normal floats well above
// subnormal territory).
func TestFastLog32Accuracy(t *testing.T) {
	rng := mathx.NewRand(41)
	for i := 0; i < 10000; i++ {
		x := float32(math.Exp(rng.Float64()*40 - 35)) // e^-35 .. e^5
		got := float64(fastLog32(x))
		want := math.Log(float64(x))
		if diff := math.Abs(got - want); diff > 2e-5 {
			t.Fatalf("fastLog32(%g) = %g, want %g (err %.3g > 2e-5)", x, got, want, diff)
		}
	}
}
