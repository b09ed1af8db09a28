package poi

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"mood/internal/geo"
	"mood/internal/mathx"
	"mood/internal/synth"
	"mood/internal/trace"
)

// oracleExtract is Extract before the LatGap prune, kept verbatim: every
// record is measured against the running centroid.
func oracleExtract(e Extractor, t trace.Trace) []POI {
	if t.Len() == 0 {
		return nil
	}
	maxD := e.MaxDiameter
	if maxD <= 0 {
		maxD = DefaultMaxDiameter
	}
	minDwell := int64(e.MinDwell / time.Second)
	if minDwell <= 0 {
		minDwell = int64(DefaultMinDwell / time.Second)
	}
	var pois []POI
	var cluster []trace.Record
	var centroid geo.Point
	flush := func() {
		if len(cluster) == 0 {
			return
		}
		first := cluster[0].TS
		last := cluster[len(cluster)-1].TS
		if last-first >= minDwell {
			pois = append(pois, POI{
				Center:  centroid,
				Records: len(cluster),
				Dwell:   time.Duration(last-first) * time.Second,
				First:   first,
				Last:    last,
			})
		}
		cluster = cluster[:0]
	}
	for _, r := range t.Records {
		p := r.Point()
		if len(cluster) == 0 {
			cluster = append(cluster, r)
			centroid = p
			continue
		}
		if geo.FastDistance(centroid, p) <= maxD/2 {
			cluster = append(cluster, r)
			n := float64(len(cluster))
			centroid = geo.Point{
				Lat: centroid.Lat + (p.Lat-centroid.Lat)/n,
				Lon: centroid.Lon + (p.Lon-centroid.Lon)/n,
			}
			continue
		}
		flush()
		cluster = append(cluster, r)
		centroid = p
	}
	flush()
	pois = e.merge(pois)
	sort.SliceStable(pois, func(i, j int) bool { return pois[i].Records > pois[j].Records })
	return pois
}

// TestExtractMatchesExhaustive: rejecting a record on LatGap alone
// leaves every extracted POI bit-identical to the exhaustive scan, on
// every preset city at two seeds and at several cluster diameters
// (the paper's 200 m, a tight and a loose one).
func TestExtractMatchesExhaustive(t *testing.T) {
	pois := 0
	for _, seed := range []uint64{1, 2} {
		for _, cfg := range synth.Presets(synth.ScaleTiny, seed) {
			d, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, maxD := range []float64{DefaultMaxDiameter, 60, 900} {
				e := NewExtractor()
				e.MaxDiameter = maxD
				for _, tr := range d.Traces {
					got, want := e.Extract(tr), oracleExtract(e, tr)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s (seed %d, %v m): Extract differs from the exhaustive scan:\n got %v\nwant %v",
							tr.User, seed, maxD, got, want)
					}
					for i := range got {
						if math.Float64bits(got[i].Center.Lat) != math.Float64bits(want[i].Center.Lat) ||
							math.Float64bits(got[i].Center.Lon) != math.Float64bits(want[i].Center.Lon) {
							t.Fatalf("%s: POI %d centre differs in its bits", tr.User, i)
						}
					}
					pois += len(got)
				}
			}
		}
	}
	if pois < 100 {
		t.Fatalf("only %d POIs extracted: the cities exercise too little", pois)
	}
}

// TestExtractMatchesExhaustiveOnEdgeCases: admitting a record on
// SurelyWithin and rejecting it on LatGap leave Extract bit-identical to
// the exhaustive scan where the two bounds decide least — records one
// ulp inside and outside the half diameter, just past it at the edge of
// the LatGap band, NaN records, a cluster
// reopened by every other record — and on random walks whose steps
// straddle the half diameter.
func TestExtractMatchesExhaustiveOnEdgeCases(t *testing.T) {
	check := func(name string, e Extractor, recs []trace.Record) {
		t.Helper()
		tr := trace.Trace{User: name, Records: recs}
		got, want := e.Extract(tr), oracleExtract(e, tr)
		if len(got) != len(want) {
			t.Fatalf("%s: %d POIs, exhaustive %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i].Records != want[i].Records || got[i].First != want[i].First || got[i].Last != want[i].Last ||
				math.Float64bits(got[i].Center.Lat) != math.Float64bits(want[i].Center.Lat) ||
				math.Float64bits(got[i].Center.Lon) != math.Float64bits(want[i].Center.Lon) {
				t.Fatalf("%s: POI %d = %v, exhaustive %v", name, i, got[i], want[i])
			}
		}
	}
	e := NewExtractor()
	e.MinDwell = time.Minute // every cluster of two records or more is a POI
	half := e.MaxDiameter / 2
	home := geo.Point{Lat: 45.76, Lon: 4.83}
	edge := geo.Offset(home, half, 0)
	for geo.FastDistance(home, edge) > half {
		edge.Lon = math.Nextafter(edge.Lon, home.Lon)
	}
	out := geo.Point{Lat: edge.Lat, Lon: math.Nextafter(edge.Lon, 180)}
	var recs []trace.Record
	add := func(ps ...geo.Point) {
		for _, p := range ps {
			recs = append(recs, trace.Record{Lat: p.Lat, Lon: p.Lon, TS: int64(len(recs)) * 600})
		}
	}
	// Past the half diameter by a few meters east of the band's edge,
	// where SurelyWithin's L1 bound is within 1 % of the distance.
	corner := geo.Offset(home, half*0.005, half*(1-1e-6))
	for i := 0; i < 10; i++ {
		add(home, home, edge, home, out, home, corner, home)
	}
	add(geo.Point{Lat: math.NaN(), Lon: home.Lon}, home, home, geo.Point{Lat: home.Lat, Lon: math.NaN()})
	for i := 0; i < 20; i++ {
		add(home, geo.Offset(home, 0, 3*half))
	}
	check("edges", e, recs)
	if n := len(e.Extract(trace.Trace{Records: recs})); n == 0 {
		t.Fatal("the edge trace yields no POI")
	}

	rng := mathx.NewRand(73)
	for round := 0; round < 200; round++ {
		e := NewExtractor()
		e.MaxDiameter = math.Exp(rng.Float64()*7) + 1 // 2 m to 1.1 km
		p := home
		recs := make([]trace.Record, 400)
		for i := range recs {
			if rng.Intn(50) == 0 {
				p = geo.Offset(p, rng.NormFloat64()*5000, rng.NormFloat64()*5000)
			}
			q := geo.Offset(p, rng.NormFloat64()*e.MaxDiameter/3, rng.NormFloat64()*e.MaxDiameter/3)
			recs[i] = trace.Record{Lat: q.Lat, Lon: q.Lon, TS: int64(i) * 300}
		}
		check("random walk", e, recs)
	}
}
