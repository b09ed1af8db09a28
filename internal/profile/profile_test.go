package profile

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"mood/internal/geo"
	"mood/internal/heatmap"
	"mood/internal/mathx"
	"mood/internal/mmc"
	"mood/internal/poi"
	"mood/internal/trace"
)

var home = geo.Point{Lat: 45.76, Lon: 4.84}

// background draws users who dwell at a few places (POIs, a chain),
// users who only wander, empty traces and repeated user IDs.
func background(rng *mathx.Rand, users int) []trace.Trace {
	bg := make([]trace.Trace, users)
	for u := range bg {
		var recs []trace.Record
		ts := int64(rng.Intn(86400))
		switch rng.Intn(4) {
		case 0: // empty
		case 1: // wander
			p := geo.Offset(home, (rng.Float64()-0.5)*20000, (rng.Float64()-0.5)*20000)
			for i := 30 + rng.Intn(100); i > 0; i-- {
				p = geo.Offset(p, 300+rng.Float64()*500, (rng.Float64()-0.5)*800)
				ts += int64(60 + rng.Intn(300))
				recs = append(recs, trace.At(p, ts))
			}
		default: // dwell at a few places
			places := make([]geo.Point, 1+rng.Intn(4))
			for i := range places {
				places[i] = geo.Offset(home, (rng.Float64()-0.5)*15000, (rng.Float64()-0.5)*15000)
			}
			for v := 3 + rng.Intn(8); v > 0; v-- {
				p := places[rng.Intn(len(places))]
				for i := 4 + rng.Intn(20); i > 0; i-- {
					recs = append(recs, trace.At(geo.Offset(p, (rng.Float64()-0.5)*60, (rng.Float64()-0.5)*60), ts))
					ts += 600
				}
				ts += int64(rng.Intn(4 * 3600))
			}
		}
		bg[u] = trace.New(fmt.Sprintf("u%02d", rng.Intn(users)), recs)
	}
	return bg
}

// TestSetMatchesPerTraceBuilds: at every GOMAXPROCS, each family equals
// what the per-trace constructors build, user for user in background
// order, on the grid the attacks and HMC used to anchor separately.
func TestSetMatchesPerTraceBuilds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		for seed := uint64(1); seed <= 6; seed++ {
			bg := background(mathx.NewRand(seed), 2+int(seed)*4)
			s := New(bg, 0)

			box := geo.EmptyBBox()
			var want []trace.Trace
			for _, tr := range bg {
				if b := tr.BBox(); !b.Empty() {
					box = box.Extend(b.Center())
					want = append(want, tr)
				}
			}
			grid := geo.NewGrid(box.Center(), heatmap.DefaultCellSize)
			if !reflect.DeepEqual(s.Grid(), grid) {
				t.Fatalf("procs %d, seed %d: grid anchored elsewhere", procs, seed)
			}
			s.Quants()
			s.Ranked()
			users := s.Chains()
			if len(users) != len(want) {
				t.Fatalf("procs %d, seed %d: %d users, want %d", procs, seed, len(users), len(want))
			}
			e := poi.NewExtractor()
			for i, tr := range want {
				u := &users[i]
				hm := heatmap.FromTrace(grid, tr)
				f := hm.Freeze()
				c := mmc.Build(e, tr)
				switch {
				case u.ID != tr.User || !reflect.DeepEqual(u.Trace, tr):
					t.Fatalf("seed %d, user %d: %q, want %q", seed, i, u.ID, tr.User)
				case !reflect.DeepEqual(u.Frozen, f) || !reflect.DeepEqual(u.Quant, f.Quantize()):
					t.Fatalf("seed %d, user %d: heatmap differs from the per-trace freeze", seed, i)
				case !reflect.DeepEqual(u.Cells, hm.TopCells(0)):
					t.Fatalf("seed %d, user %d: cells %v, want TopCells(0) %v", seed, i, u.Cells, hm.TopCells(0))
				case !reflect.DeepEqual(u.POIs, e.Extract(tr)):
					t.Fatalf("seed %d, user %d: POIs differ from the paper extractor's", seed, i)
				case !reflect.DeepEqual(u.Chain, c) || !reflect.DeepEqual(u.Stationary, c.Stationary()):
					t.Fatalf("seed %d, user %d: chain differs from mmc.Build's", seed, i)
				}
			}
		}
	}
}

// gridBits is a grid's anchor and cell size as bits: reflect.DeepEqual
// compares floats with ==, which takes -0 for +0.
func gridBits(g *geo.Grid) [3]uint64 {
	v := reflect.ValueOf(g).Elem()
	origin := v.FieldByName("proj").Elem().FieldByName("origin")
	return [3]uint64{
		math.Float64bits(origin.FieldByName("Lat").Float()),
		math.Float64bits(origin.FieldByName("Lon").Float()),
		math.Float64bits(v.FieldByName("size").Float()),
	}
}

// TestGridMatchesSequentialFold: the centres are computed in parallel,
// yet the grid is anchored bit for bit where folding them one trace
// after another in background order anchors it. A background of
// records pinned at -0 and +0 makes the fold's order show in the
// anchor's sign.
func TestGridMatchesSequentialFold(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		for seed := uint64(1); seed <= 6; seed++ {
			rng := mathx.NewRand(seed)
			zeros := make([]trace.Trace, 12)
			for i := range zeros {
				z := math.Copysign(0, float64(rng.Intn(2)*2-1))
				zeros[i] = trace.New(fmt.Sprintf("z%02d", i), []trace.Record{{Lat: z, Lon: z, TS: 1}})
			}
			for _, bg := range [][]trace.Trace{background(rng, 4+int(seed)*5), zeros} {
				box := geo.EmptyBBox()
				for _, tr := range bg {
					if !tr.Empty() {
						box = box.Extend(tr.BBox().Center())
					}
				}
				want := gridBits(geo.NewGrid(box.Center(), heatmap.DefaultCellSize))
				if got := gridBits(New(bg, 0).Grid()); got != want {
					t.Fatalf("procs %d, seed %d: grid bits %x, want %x", procs, seed, got, want)
				}
			}
		}
	}
}

// TestFamiliesBuildOnDemandAndOnce: a family is built only when some
// consumer asks for it (HMC's Ranked extracts no POIs, AP's Quants
// builds no chains), and asking again returns the same values.
func TestFamiliesBuildOnDemandAndOnce(t *testing.T) {
	s := New(background(mathx.NewRand(3), 24), 0)
	dwellers := 0
	for _, tr := range s.Users() {
		if len(poi.NewExtractor().Extract(tr.Trace)) > 0 {
			dwellers++
		}
	}
	if dwellers == 0 {
		t.Fatal("no user dwells: the test cannot tell a skipped family")
	}

	users := s.Ranked()
	for i := range users {
		u := &users[i]
		if u.Frozen == nil || u.Cells == nil {
			t.Fatalf("user %d: Ranked left its family unbuilt", i)
		}
		if u.Quant != nil || u.POIs != nil || !u.Chain.Empty() {
			t.Fatalf("user %d: Ranked built a family nobody asked for", i)
		}
	}
	first := users[0].Frozen
	s.Quants()
	for i := range users {
		if users[i].POIs != nil || !users[i].Chain.Empty() {
			t.Fatalf("user %d: Quants built POIs or a chain", i)
		}
	}
	if again := s.Heatmaps(); again[0].Frozen != first {
		t.Fatal("Heatmaps rebuilt a family Ranked had built")
	}
	s.POIs()
	for i := range users {
		if !users[i].Chain.Empty() {
			t.Fatalf("user %d: POIs built a chain", i)
		}
	}
}

// TestEmptyBackgrounds: no traces, or only empty ones, give no grid and
// no users, which the consumers turn into their training errors.
func TestEmptyBackgrounds(t *testing.T) {
	for _, bg := range [][]trace.Trace{nil, {{User: "a"}, {User: "b"}}} {
		s := New(bg, 0)
		if s.Grid() != nil || len(s.Users()) != 0 || len(s.Background()) != len(bg) {
			t.Fatalf("background %v: grid %v, %d users", bg, s.Grid(), len(s.Users()))
		}
	}
	s := New(background(mathx.NewRand(1), 8), 500)
	if d := s.Grid().CellDistance(geo.Cell{}, geo.Cell{X: 1}); d != 500 {
		t.Fatalf("cell size %v, want 500", d)
	}
}
