package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGridCellOfOrigin(t *testing.T) {
	g := NewGrid(lyon, 800)
	c := g.CellOf(lyon)
	if c.X != 0 || c.Y != 0 {
		t.Fatalf("origin cell = %v, want 0:0", c)
	}
}

func TestGridNeighbourCells(t *testing.T) {
	g := NewGrid(lyon, 800)
	tests := []struct {
		dx, dy float64
		want   Cell
	}{
		{10, 10, Cell{0, 0}},
		{810, 10, Cell{1, 0}},
		{10, 810, Cell{0, 1}},
		{-10, -10, Cell{-1, -1}},
		{1650, -10, Cell{2, -1}},
	}
	for _, tt := range tests {
		p := Offset(lyon, tt.dx, tt.dy)
		if got := g.CellOf(p); got != tt.want {
			t.Errorf("CellOf(offset %v,%v) = %v, want %v", tt.dx, tt.dy, got, tt.want)
		}
	}
}

func TestGridCenterRoundTrip(t *testing.T) {
	g := NewGrid(lyon, 800)
	f := func(dx, dy float64) bool {
		dx = math.Mod(dx, 20000)
		dy = math.Mod(dy, 20000)
		p := Offset(lyon, dx, dy)
		c := g.CellOf(p)
		center := g.PointIn(c, 0.5, 0.5)
		// The center must be inside the same cell and within half the
		// cell diagonal of p.
		if g.CellOf(center) != c {
			return false
		}
		return FastDistance(p, center) <= 800*math.Sqrt2/2+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGridPointInOffsets(t *testing.T) {
	g := NewGrid(lyon, 500)
	p := Offset(lyon, 1234, 5678)
	c := g.CellOf(p)
	fx, fy := g.Offsets(p)
	if fx < 0 || fx >= 1 || fy < 0 || fy >= 1 {
		t.Fatalf("offsets out of range: %v, %v", fx, fy)
	}
	back := g.PointIn(c, fx, fy)
	if d := FastDistance(p, back); d > 0.5 {
		t.Fatalf("PointIn round trip error %v m", d)
	}
}

func TestGridCellDistance(t *testing.T) {
	g := NewGrid(lyon, 800)
	d := g.CellDistance(Cell{0, 0}, Cell{3, 4})
	if math.Abs(d-4000) > 1e-9 {
		t.Fatalf("CellDistance = %v, want 4000", d)
	}
	if g.CellDistance(Cell{2, 2}, Cell{2, 2}) != 0 {
		t.Fatal("distance to self must be 0")
	}
}

func TestNewGridPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGrid(0) must panic")
		}
	}()
	NewGrid(lyon, 0)
}
