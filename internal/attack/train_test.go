package attack

import (
	"fmt"
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

// The sequential trainers, kept verbatim as oracles: every parallel
// trainer must build exactly these profiles, in this order.

func oracleTrainAP(a *AP, background []trace.Trace) error {
	size := heatmap.DefaultCellSize
	box := geo.EmptyBBox()
	for _, t := range background {
		if !t.Empty() {
			box = box.Extend(t.BBox().Center())
		}
	}
	if box.Empty() {
		return fmt.Errorf("attack: AP background has no records")
	}
	a.grid = geo.NewGrid(box.Center(), size)
	a.profiles = a.profiles[:0]
	for _, t := range background {
		if t.Empty() {
			continue
		}
		a.profiles = append(a.profiles, apProfile{
			user:   t.User,
			frozen: heatmap.FrozenFromTrace(a.grid, t),
		})
	}
	if len(a.profiles) == 0 {
		return fmt.Errorf("attack: AP has no usable profiles")
	}
	for pi := range a.profiles {
		a.profiles[pi].quant = a.profiles[pi].frozen.Quantize()
	}
	a.block = apBlockLen(a.profiles)
	return nil
}

func oracleTrainPOI(a *POIAttack, background []trace.Trace) error {
	if len(background) == 0 {
		return fmt.Errorf("attack: POI training needs background traces")
	}
	a.profiles = a.profiles[:0]
	for _, t := range background {
		pois := poi.NewExtractor().Extract(t)
		if len(pois) == 0 {
			continue
		}
		a.profiles = append(a.profiles, poiProfile{user: t.User, pois: pois})
	}
	return nil
}

func oracleTrainPIT(a *PIT, background []trace.Trace) error {
	if len(background) == 0 {
		return fmt.Errorf("attack: PIT training needs background traces")
	}
	a.profiles = a.profiles[:0]
	for _, t := range background {
		c := mmc.Build(poi.NewExtractor(), t)
		if c.Empty() {
			continue
		}
		a.profiles = append(a.profiles, pitProfile{user: t.User, chain: c, stat: c.Stationary()})
	}
	return nil
}

// oracleTrainAll is the old TrainAll over the oracle trainers.
func oracleTrainAll(s Set, background []trace.Trace) error {
	for _, atk := range s {
		var err error
		switch a := atk.(type) {
		case *AP:
			err = oracleTrainAP(a, background)
		case *POIAttack:
			err = oracleTrainPOI(a, background)
		case *PIT:
			err = oracleTrainPIT(a, background)
		default:
			panic("no oracle for " + atk.Name())
		}
		if err != nil {
			return fmt.Errorf("attack: training %s: %w", atk.Name(), err)
		}
	}
	return nil
}

// randomBackground draws a background over the shapes training must
// handle: users who dwell at a few places (POIs, a chain), users who
// only wander (an AP profile but no dwell structure), empty traces, and
// user IDs that repeat.
func randomBackground(rng *mathx.Rand, users int) []trace.Trace {
	home := geo.Point{Lat: 45.76, Lon: 4.84}
	bg := make([]trace.Trace, users)
	for u := range bg {
		user := fmt.Sprintf("u%02d", rng.Intn(2*users))
		var recs []trace.Record
		ts := int64(rng.Intn(86400))
		switch kind := rng.Intn(5); {
		case kind == 0 && users > 1: // empty
		case kind == 1: // wander: never within 100 m for an hour
			p := geo.Offset(home, (rng.Float64()-0.5)*20000, (rng.Float64()-0.5)*20000)
			for i := 30 + rng.Intn(200); i > 0; i-- {
				p = geo.Offset(p, 300+rng.Float64()*500, (rng.Float64()-0.5)*800)
				ts += int64(60 + rng.Intn(300))
				recs = append(recs, trace.At(p, ts))
			}
		default: // dwell at a few places, revisiting them
			places := make([]geo.Point, 1+rng.Intn(4))
			for i := range places {
				places[i] = geo.Offset(home, (rng.Float64()-0.5)*15000, (rng.Float64()-0.5)*15000)
			}
			for v := 3 + rng.Intn(10); v > 0; v-- {
				p := places[rng.Intn(len(places))]
				for i := 4 + rng.Intn(24); i > 0; i-- {
					recs = append(recs, trace.At(geo.Offset(p, (rng.Float64()-0.5)*60, (rng.Float64()-0.5)*60), ts))
					ts += 600
				}
				ts += int64(rng.Intn(4 * 3600))
			}
		}
		bg[u] = trace.New(user, recs)
	}
	return bg
}

// probes are anonymous traces to score both trained sets on: background
// traces stripped of their labels, fresh draws, and an empty trace.
func probes(rng *mathx.Rand, bg []trace.Trace) ([]trace.Trace, []string) {
	var ts []trace.Trace
	var owners []string
	for _, t := range bg {
		ts = append(ts, t.WithUser(""))
		owners = append(owners, t.User)
	}
	for i, t := range randomBackground(rng, 6) {
		ts = append(ts, t.WithUser(""))
		owners = append(owners, bg[i%len(bg)].User)
	}
	return append(ts, trace.Trace{}), append(owners, "nobody")
}

// TestTrainAllMatchesSequentialOracle is the parallel trainers' contract:
// at every GOMAXPROCS, TrainAll builds profile slices deep-equal to the
// sequential oracle's — same order, same floats, same errors — so every
// verdict downstream is bit-identical too.
func TestTrainAllMatchesSequentialOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		for seed := uint64(1); seed <= 10; seed++ {
			rng := mathx.NewRand(seed)
			users := 1 + rng.Intn(30)
			if seed == 1 {
				users = 1
			}
			bg := randomBackground(rng, users)
			got, want := allAttacks(), allAttacks()
			gotErr, wantErr := TrainAll(got, bg), oracleTrainAll(want, bg)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("procs %d, seed %d: TrainAll error %v, oracle %v", procs, seed, gotErr, wantErr)
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("procs %d, seed %d (%d users): %s profiles differ from the sequential oracle",
						procs, seed, users, got[i].Name())
				}
			}
			if gotErr != nil {
				continue
			}

			ts, owners := probes(rng, bg)
			gb := BatchIdentify(got, ts)
			for i := range got {
				for j, tr := range ts {
					w := oracleIdentify(want[i], tr)
					if g := got[i].Identify(tr); !verdictsEq(g, w) {
						t.Fatalf("procs %d, seed %d, %s, probe %d: Identify %+v != oracle %+v", procs, seed, got[i].Name(), j, g, w)
					}
					if !verdictsEq(gb[i][j], w) {
						t.Fatalf("procs %d, seed %d, %s, probe %d: BatchIdentify %+v != oracle %+v", procs, seed, got[i].Name(), j, gb[i][j], w)
					}
				}
			}
			if g, w := got.ReIdentifiesBatch(ts, owners), want.ReIdentifiesBatch(ts, owners); !reflect.DeepEqual(g, w) {
				t.Fatalf("procs %d, seed %d: ReIdentifiesBatch %v != oracle %v", procs, seed, g, w)
			}
		}
	}
}
