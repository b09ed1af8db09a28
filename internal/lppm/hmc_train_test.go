package lppm

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"mood/internal/geo"
	"mood/internal/heatmap"
	"mood/internal/mathx"
	"mood/internal/trace"
)

// oracleNewHMC is NewHMC's sequential profile loop, kept as the oracle
// the parallel build must reproduce exactly.
func oracleNewHMC(cellSize float64, background []trace.Trace) (*HMC, error) {
	if len(background) == 0 {
		return nil, fmt.Errorf("lppm: HMC needs background traces")
	}
	if cellSize <= 0 {
		cellSize = heatmap.DefaultCellSize
	}
	box := geo.EmptyBBox()
	for _, t := range background {
		b := t.BBox()
		if !b.Empty() {
			box = box.Extend(b.Center())
		}
	}
	if box.Empty() {
		return nil, fmt.Errorf("lppm: HMC background has no records")
	}
	grid := geo.NewGrid(box.Center(), cellSize)
	h := &HMC{grid: grid, cover: DefaultHMCCover, maxCells: DefaultHMCMaxCells}
	for _, t := range background {
		if t.Empty() {
			continue
		}
		hm := heatmap.FromTrace(grid, t)
		f := hm.Freeze()
		h.profiles = append(h.profiles, hmcProfile{
			user:   t.User,
			frozen: f,
			quant:  f.Quantize(),
			cells:  hm.TopCells(0),
		})
	}
	if len(h.profiles) < 2 {
		return nil, fmt.Errorf("lppm: HMC needs at least two background users, got %d", len(h.profiles))
	}
	return h, nil
}

// TestNewHMCMatchesSequentialOracle: at every GOMAXPROCS the parallel
// build yields the oracle's profiles in the oracle's order — which
// pickTarget's first-minimum scan depends on — so Obfuscate publishes
// the same bytes under a fixed seed.
func TestNewHMCMatchesSequentialOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		for seed := uint64(1); seed <= 8; seed++ {
			rng := mathx.NewRand(seed)
			bg := make([]trace.Trace, 1+rng.Intn(30))
			for i := range bg {
				if rng.Intn(5) > 0 { // one in five stays empty
					bg[i] = randomTrace(int64(seed)*100+int64(i), 1+rng.Intn(300))
				}
				bg[i].User = fmt.Sprintf("u%02d", rng.Intn(2*len(bg)))
			}
			got, gotErr := NewHMC(0, bg)
			want, wantErr := oracleNewHMC(0, bg)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("procs %d, seed %d: NewHMC error %v, oracle %v", procs, seed, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("procs %d, seed %d: NewHMC profiles differ from the sequential oracle", procs, seed)
			}
			if gotErr != nil {
				continue
			}
			for i := 0; i < 4; i++ {
				in := randomTrace(int64(seed)*1000+int64(i), 50)
				in.User = bg[i%len(bg)].User
				g, gErr := got.Obfuscate(mathx.NewRand(7), in)
				w, wErr := want.Obfuscate(mathx.NewRand(7), in)
				if fmt.Sprint(gErr) != fmt.Sprint(wErr) || !reflect.DeepEqual(g, w) {
					t.Fatalf("procs %d, seed %d, probe %d: Obfuscate differs from the oracle's", procs, seed, i)
				}
			}
		}
	}
}
