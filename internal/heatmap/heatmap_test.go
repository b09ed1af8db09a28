package heatmap

import (
	"math"
	"testing"

	"mood/internal/geo"
	"mood/internal/mathx"
	"mood/internal/trace"
)

var origin = geo.Point{Lat: 45.7640, Lon: 4.8357}

func grid() *geo.Grid { return geo.NewGrid(origin, DefaultCellSize) }

func clusteredTrace(user string, center geo.Point, n int) trace.Trace {
	rs := make([]trace.Record, n)
	for i := range rs {
		rs[i] = trace.At(geo.Offset(center, float64(i%5)*30, float64(i%7)*30), int64(i*60))
	}
	return trace.New(user, rs)
}

func TestFromTraceCounts(t *testing.T) {
	g := grid()
	tr := clusteredTrace("u", origin, 50)
	h := FromTrace(g, tr)
	if h.Total() != 50 {
		t.Fatalf("Total = %v, want 50", h.Total())
	}
	if h.Cells() == 0 {
		t.Fatal("no cells populated")
	}
	// All records are within ~200 m of origin, so at most 4 cells
	// (straddling at worst a corner).
	if h.Cells() > 4 {
		t.Fatalf("tight cluster landed in %d cells", h.Cells())
	}
}

func TestProbNormalisation(t *testing.T) {
	g := grid()
	h := FromTrace(g, clusteredTrace("u", origin, 97))
	var sum float64
	for _, cw := range h.TopCells(0) {
		sum += h.Prob(cw.Cell)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestEmptyHeatmapProb(t *testing.T) {
	h := New(grid())
	if p := h.Prob(geo.Cell{}); p != 0 {
		t.Fatalf("empty heatmap prob = %v", p)
	}
	if h.Total() != 0 || h.Cells() != 0 {
		t.Fatal("empty heatmap not empty")
	}
}

func TestTopCellsOrdering(t *testing.T) {
	h := New(grid())
	h.AddCell(geo.Cell{X: 0, Y: 0}, 5)
	h.AddCell(geo.Cell{X: 1, Y: 0}, 10)
	h.AddCell(geo.Cell{X: 2, Y: 0}, 1)
	top := h.TopCells(2)
	if len(top) != 2 {
		t.Fatalf("TopCells(2) returned %d", len(top))
	}
	if top[0].Cell.X != 1 || top[1].Cell.X != 0 {
		t.Fatalf("wrong order: %v", top)
	}
	all := h.TopCells(0)
	if len(all) != 3 {
		t.Fatalf("TopCells(0) returned %d", len(all))
	}
}

func TestTopCellsDeterministicTies(t *testing.T) {
	build := func() []CellWeight {
		h := New(grid())
		h.AddCell(geo.Cell{X: 3, Y: 1}, 2)
		h.AddCell(geo.Cell{X: 1, Y: 2}, 2)
		h.AddCell(geo.Cell{X: 2, Y: 0}, 2)
		return h.TopCells(0)
	}
	a := build()
	b := build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tie-breaking is not deterministic")
		}
	}
}

// TestTopCellsMatchesMapSort: the stable weight sort of a Frozen's
// (X, Y)-ordered support equals the map sort, on heavily tied weights.
func TestTopCellsMatchesMapSort(t *testing.T) {
	rng := mathx.NewRand(4)
	for i := 0; i < 200; i++ {
		h := randomHeatmap(rng, rng.Intn(60), 12)
		got, want := h.Freeze().TopCells(), oracleTopCells(h)
		if len(got) != len(want) {
			t.Fatalf("case %d: %d cells, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("case %d, rank %d: %v, want %v", i, j, got[j], want[j])
			}
		}
	}
}

func TestTopsoeIdenticalAndDisjoint(t *testing.T) {
	g := grid()
	u := FromTrace(g, clusteredTrace("u", origin, 60))
	if d := oracleTopsoe(u, u); d != 0 {
		t.Fatalf("self divergence = %v", d)
	}
	far := FromTrace(g, clusteredTrace("v", geo.Offset(origin, 50000, 50000), 60))
	d := oracleTopsoe(u, far)
	if math.Abs(d-2*math.Ln2) > 1e-9 {
		t.Fatalf("disjoint divergence = %v, want 2ln2", d)
	}
}

func TestTopsoeDiscriminates(t *testing.T) {
	g := grid()
	u := FromTrace(g, clusteredTrace("u", origin, 60))
	near := FromTrace(g, clusteredTrace("n", geo.Offset(origin, 200, 0), 60))
	far := FromTrace(g, clusteredTrace("f", geo.Offset(origin, 10000, 0), 60))
	if oracleTopsoe(u, near) >= oracleTopsoe(u, far) {
		t.Fatalf("overlapping profile should be closer: near %v, far %v",
			oracleTopsoe(u, near), oracleTopsoe(u, far))
	}
}

func TestDistributionsAligned(t *testing.T) {
	g := grid()
	a := FromTrace(g, clusteredTrace("a", origin, 30))
	b := FromTrace(g, clusteredTrace("b", geo.Offset(origin, 1600, 0), 30))
	p, q := oracleDistributions(a, b)
	if len(p) != len(q) {
		t.Fatal("misaligned distributions")
	}
	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	if math.Abs(sum(p)-1) > 1e-12 || math.Abs(sum(q)-1) > 1e-12 {
		t.Fatalf("distributions not normalised: %v, %v", sum(p), sum(q))
	}
	// Topsoe over the aligned vectors must match the frozen walk.
	if d1, d2 := mathx.Topsoe(p, q), a.Freeze().Topsoe(b.Freeze()); math.Abs(d1-d2) > 1e-12 {
		t.Fatalf("Topsoe mismatch: %v vs %v", d1, d2)
	}
}

func TestAddWeighted(t *testing.T) {
	h := New(grid())
	h.Add(origin, 2.5)
	h.Add(origin, 0.5)
	c := h.Grid().CellOf(origin)
	if h.Total() != 3 || h.Cells() != 1 {
		t.Fatalf("total = %v over %d cells", h.Total(), h.Cells())
	}
	if h.Prob(c) != 1 {
		t.Fatalf("prob = %v", h.Prob(c))
	}
}
