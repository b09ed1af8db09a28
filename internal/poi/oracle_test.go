package poi

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"mood/internal/geo"
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
