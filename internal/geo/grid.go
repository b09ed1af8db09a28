package geo

import (
	"fmt"
	"math"
)

// Cell identifies a cell of a Grid by integer column (X, east) and
// row (Y, north) indices relative to the grid origin.
type Cell struct {
	X, Y int32
}

// String renders the cell as "x:y".
func (c Cell) String() string { return fmt.Sprintf("%d:%d", c.X, c.Y) }

// Grid tessellates the plane around an origin into square cells of a
// fixed size in meters, using the origin's local projection. Heatmap
// attacks and the HMC mechanism both operate on Grid cells.
//
// A Grid is immutable and safe for concurrent use.
type Grid struct {
	proj *Projector
	size float64
}

// NewGrid returns a grid of size-meter square cells anchored at origin.
// It panics if size is not strictly positive, which is a programming
// error rather than a data error.
func NewGrid(origin Point, size float64) *Grid {
	if size <= 0 || math.IsNaN(size) {
		panic(fmt.Sprintf("geo: invalid grid cell size %v", size))
	}
	return &Grid{proj: NewProjector(origin), size: size}
}

// CellOf returns the cell containing p.
func (g *Grid) CellOf(p Point) Cell {
	x, y := g.proj.ToXY(p)
	return Cell{
		X: int32(math.Floor(x / g.size)),
		Y: int32(math.Floor(y / g.size)),
	}
}

// PointIn returns the point inside cell c at fractional offsets
// (fx, fy) in [0,1) of the cell edge, measured from the south-west
// corner. PointIn(c, 0.5, 0.5) is the cell's center.
func (g *Grid) PointIn(c Cell, fx, fy float64) Point {
	return g.proj.ToPoint(
		(float64(c.X)+fx)*g.size,
		(float64(c.Y)+fy)*g.size,
	)
}

// Offsets returns the fractional position of p inside its cell,
// each in [0, 1).
func (g *Grid) Offsets(p Point) (fx, fy float64) {
	x, y := g.proj.ToXY(p)
	fx = x/g.size - math.Floor(x/g.size)
	fy = y/g.size - math.Floor(y/g.size)
	return fx, fy
}

// CellDistance returns the distance in meters between the centers of
// cells a and b.
func (g *Grid) CellDistance(a, b Cell) float64 {
	dx := float64(a.X-b.X) * g.size
	dy := float64(a.Y-b.Y) * g.size
	return math.Hypot(dx, dy)
}
