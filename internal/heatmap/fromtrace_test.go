package heatmap

import (
	"encoding/binary"
	"math"
	"testing"

	"mood/internal/geo"
	"mood/internal/mathx"
	"mood/internal/synth"
	"mood/internal/trace"
)

// sameFrozen reports whether a and b hold the same cells in the same
// order with the same weight and total bits.
func sameFrozen(a, b *Frozen) bool {
	if len(a.cells) != len(b.cells) || len(a.weights) != len(b.weights) ||
		math.Float64bits(a.total) != math.Float64bits(b.total) {
		return false
	}
	for i := range a.cells {
		if a.cells[i] != b.cells[i] || math.Float64bits(a.weights[i]) != math.Float64bits(b.weights[i]) {
			return false
		}
	}
	return true
}

// inCells is a trace with one record at the centre of each given cell.
func inCells(g *geo.Grid, cells ...geo.Cell) trace.Trace {
	rs := make([]trace.Record, len(cells))
	for i, c := range cells {
		rs[i] = trace.At(g.PointIn(c, 0.5, 0.5), int64(i*60))
	}
	return trace.New("u", rs)
}

// TestFrozenFromTraceMatchesFreeze: the dense count returns exactly
// what the map path's Freeze returns — cells, weights and total, bit
// for bit — on either side of the dense threshold and on the fallback.
func TestFrozenFromTraceMatchesFreeze(t *testing.T) {
	g := grid()
	rng := mathx.NewRand(5)
	random := make([]trace.Record, 3000)
	for i := range random {
		// A 20 km square around the origin: cells on both sides of 0.
		p := geo.Offset(origin, (rng.Float64()-0.5)*20000, (rng.Float64()-0.5)*20000)
		random[i] = trace.At(p, int64(i))
	}
	continent := make([]trace.Record, 200)
	for i := range continent {
		// Lisbon to Moscow: a box of millions of 800 m cells.
		p := geo.Point{Lat: 38.7 + rng.Float64()*17, Lon: -9.1 + rng.Float64()*46.7}
		continent[i] = trace.At(p, int64(i))
	}
	// Two records: the threshold is 16·2 + 1024 = 1056 cells.
	cases := []struct {
		name  string
		tr    trace.Trace
		dense bool
	}{
		{"empty", trace.New("u", nil), true},
		{"one record", inCells(g, geo.Cell{X: 3, Y: -4}), true},
		{"negative cells", inCells(g, geo.Cell{X: -7, Y: -2}, geo.Cell{X: -1, Y: -9},
			geo.Cell{X: -7, Y: -2}, geo.Cell{X: -3, Y: -5}), true},
		{"row at threshold", inCells(g, geo.Cell{X: -500, Y: 0}, geo.Cell{X: 555, Y: 0}), true},
		{"row past threshold", inCells(g, geo.Cell{X: -500, Y: 0}, geo.Cell{X: 556, Y: 0}), false},
		{"column at threshold", inCells(g, geo.Cell{X: 0, Y: 1055}, geo.Cell{X: 0, Y: 0}), true},
		{"column past threshold", inCells(g, geo.Cell{X: 0, Y: 1056}, geo.Cell{X: 0, Y: 0}), false},
		{"box at threshold", inCells(g, geo.Cell{X: 0, Y: 0}, geo.Cell{X: 31, Y: 32}), true},
		{"box past threshold", inCells(g, geo.Cell{X: 0, Y: 0}, geo.Cell{X: 32, Y: 32}), false},
		{"random city", trace.New("u", random), true},
		{"continent", trace.New("u", continent), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := FromTrace(g, tc.tr).Freeze()
			w, h := int64(1), int64(1) // an empty trace's box
			if len(want.cells) > 0 {
				minY, maxY := want.cells[0].Y, want.cells[0].Y
				for _, c := range want.cells {
					minY, maxY = min(minY, c.Y), max(maxY, c.Y)
				}
				w = int64(want.cells[len(want.cells)-1].X) - int64(want.cells[0].X) + 1
				h = int64(maxY) - int64(minY) + 1
			}
			if got := denseFits(tc.tr.Len(), w, h); got != tc.dense {
				t.Fatalf("%d×%d box of %d records: dense = %v, want %v", w, h, tc.tr.Len(), got, tc.dense)
			}
			// Twice: the second call reuses the pooled buffers the first
			// left behind, which must be all zero again.
			for i := 0; i < 2; i++ {
				if got := FrozenFromTrace(g, tc.tr); !sameFrozen(got, want) {
					t.Fatalf("FrozenFromTrace = %v %v %v, Freeze = %v %v %v",
						got.cells, got.weights, got.total, want.cells, want.weights, want.total)
				}
			}
		})
	}
}

// FuzzFrozenFromTrace: for arbitrary coordinates, grid origins and cell
// sizes — NaNs, infinities and overflowing cells included — the dense
// count equals the map path cell for cell and bit for bit.
func FuzzFrozenFromTrace(f *testing.F) {
	seed := func(pts ...float64) []byte {
		b := make([]byte, 8*len(pts))
		for i, v := range pts {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(origin.Lat, origin.Lon, DefaultCellSize, seed(45.76, 4.83, 45.77, 4.84, 45.76, 4.83))
	f.Add(0.0, 0.0, 1.0, seed(-0.001, -0.001, 0.001, 0.001))
	f.Add(10.0, 20.0, 800.0, seed(89.9, 179.9, -89.9, -179.9))
	f.Add(0.0, 0.0, 5.0, seed(math.NaN(), 1, math.Inf(1), -1, 0, 0))
	f.Fuzz(func(t *testing.T, oLat, oLon, size float64, raw []byte) {
		if !(size > 0) {
			return // NewGrid rejects it
		}
		rs := make([]trace.Record, len(raw)/16)
		for i := range rs {
			lat := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
			lon := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
			rs[i] = trace.Record{Lat: lat, Lon: lon, TS: int64(i)}
		}
		g := geo.NewGrid(geo.Point{Lat: oLat, Lon: oLon}, size)
		tr := trace.Trace{User: "u", Records: rs}
		got, want := FrozenFromTrace(g, tr), FromTrace(g, tr).Freeze()
		if !sameFrozen(got, want) {
			t.Fatalf("FrozenFromTrace = %v %v %v, Freeze = %v %v %v",
				got.cells, got.weights, got.total, want.cells, want.weights, want.total)
		}
	})
}

// BenchmarkFrozenFromTrace freezes every trace of a retrain pass's
// city (retrain-audit-node's shape: 141 MDC-like users over six days,
// ≈ 100 k records) on the grid a profile set anchors there: "count" is
// FrozenFromTrace, "map" the FromTrace(…).Freeze() path it replaced.
func BenchmarkFrozenFromTrace(b *testing.B) {
	cfg := synth.MDCLike(synth.ScalePaper, 1)
	cfg.NumUsers = 141
	cfg.Days = 6
	d, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	box := geo.EmptyBBox()
	for _, t := range d.Traces {
		if !t.Empty() {
			box = box.Extend(t.BBox().Center())
		}
	}
	g := geo.NewGrid(box.Center(), DefaultCellSize)
	b.Run("count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, t := range d.Traces {
				FrozenFromTrace(g, t)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, t := range d.Traces {
				FromTrace(g, t).Freeze()
			}
		}
	})
}
