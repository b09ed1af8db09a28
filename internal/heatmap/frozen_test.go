package heatmap

import (
	"math"
	"testing"

	"mood/internal/geo"
	"mood/internal/mathx"
)

// randomHeatmap builds a sparse heatmap with n cells drawn from a
// bounded integer box, with small integer-ish weights so supports of two
// heatmaps overlap partially.
func randomHeatmap(rng *mathx.Rand, n, box int) *Heatmap {
	h := New(grid())
	for i := 0; i < n; i++ {
		c := geo.Cell{
			X: int32(rng.Intn(box)),
			Y: int32(rng.Intn(box)),
		}
		h.AddCell(c, float64(1+rng.Intn(9)))
	}
	return h
}

// TestFrozenMatchesDenseExactly is the property test of the merge-walk
// divergence: on randomized sparse heatmaps — overlapping, disjoint and
// empty supports — the Frozen Topsoe walk must be numerically identical
// (==, not within tolerance) to the dense oracle, because both visit the
// union support in the same sorted order and fold through the same
// scalar kernel.
func TestFrozenMatchesDenseExactly(t *testing.T) {
	rng := mathx.NewRand(77)
	check := func(name string, a, b *Heatmap) {
		t.Helper()
		fa, fb := a.Freeze(), b.Freeze()
		wantTopsoe := oracleTopsoe(a, b)
		if got := fa.Topsoe(fb); got != wantTopsoe {
			t.Errorf("%s: frozen Topsoe %v != dense %v", name, got, wantTopsoe)
		}
		// Symmetry spot check against the dense reference too.
		if got, want := fb.Topsoe(fa), oracleTopsoe(b, a); got != want {
			t.Errorf("%s: reversed frozen Topsoe %v != dense %v", name, got, want)
		}
	}

	for round := 0; round < 200; round++ {
		a := randomHeatmap(rng, 1+rng.Intn(40), 12)
		b := randomHeatmap(rng, 1+rng.Intn(40), 12)
		check("overlapping", a, b)
	}
	for round := 0; round < 50; round++ {
		a := randomHeatmap(rng, 1+rng.Intn(20), 8)
		b := New(grid())
		for i := 0; i < 1+rng.Intn(20); i++ {
			// Shifted far outside a's box: guaranteed disjoint support.
			b.AddCell(geo.Cell{X: int32(1000 + rng.Intn(8)), Y: int32(rng.Intn(8))}, float64(1+rng.Intn(9)))
		}
		check("disjoint", a, b)
	}
	empty := New(grid())
	check("both-empty", empty, empty)
	for round := 0; round < 20; round++ {
		a := randomHeatmap(rng, 1+rng.Intn(20), 8)
		check("one-empty", a, empty)
		check("empty-one", empty, a)
	}
}

// TestFrozenSnapshotImmutable checks Freeze is a snapshot: mutating the
// source heatmap afterwards must not change the frozen view.
func TestFrozenSnapshotImmutable(t *testing.T) {
	h := New(grid())
	h.AddCell(geo.Cell{X: 1, Y: 1}, 3)
	h.AddCell(geo.Cell{X: 2, Y: 5}, 7)
	f := h.Freeze()
	other := FrozenFromTrace(grid(), clusteredTrace("o", geo.Offset(origin, 3000, 0), 40))
	before := f.Topsoe(other)
	h.AddCell(geo.Cell{X: 9, Y: 9}, 100)
	if got := f.Topsoe(other); got != before {
		t.Fatalf("frozen view changed after source mutation: %v != %v", got, before)
	}
	if f.Total() != 10 || len(f.cells) != 2 {
		t.Fatalf("snapshot stats changed: total %v cells %d", f.Total(), len(f.cells))
	}
}

// TestBoundedWalkSoundness checks the early-exit contract: a
// best-so-far scan over random profiles using bounded walks picks
// exactly the argmin a full scan picks.
func TestBoundedWalkSoundness(t *testing.T) {
	rng := mathx.NewRand(123)
	inf := math.Inf(1)
	for round := 0; round < 100; round++ {
		anon := randomHeatmap(rng, 1+rng.Intn(30), 10).Freeze()
		profiles := make([]*Frozen, 12)
		for i := range profiles {
			profiles[i] = randomHeatmap(rng, 1+rng.Intn(30), 10).Freeze()
		}

		// Full scan (exact argmin, strict <, first wins on ties).
		wantIdx, wantBest := -1, inf
		for i, p := range profiles {
			if d := anon.Topsoe(p); d < wantBest {
				wantIdx, wantBest = i, d
			}
		}
		// Early-exit scan.
		gotIdx, gotBest := -1, inf
		for i, p := range profiles {
			if d := anon.TopsoeBounded(p, gotBest); d < gotBest {
				gotIdx, gotBest = i, d
			}
		}
		if gotIdx != wantIdx || gotBest != wantBest {
			t.Fatalf("early-exit scan picked %d (%v), full scan %d (%v)", gotIdx, gotBest, wantIdx, wantBest)
		}
	}
}
