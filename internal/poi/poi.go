// Package poi extracts Points of Interest from mobility traces using the
// spatio-temporal clustering of Zhou et al. adopted by the POI- and
// PIT-attacks [27, 16]: a POI is a place of bounded diameter where the
// user dwelt for at least a minimum duration.
//
// The paper parameterises the extractor with a 200 m cluster diameter
// and a 1 h minimum dwell time (§4.1.1); those are the defaults here.
package poi

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"mood/internal/geo"
	"mood/internal/trace"
)

// Default extraction parameters from the paper (§4.1.1).
const (
	DefaultMaxDiameter = 200.0     // meters
	DefaultMinDwell    = time.Hour // minimum stay duration
	DefaultMergeDist   = 100.0     // merge POIs closer than this
)

// POI is a meaningful place: the centroid of a dwell cluster.
type POI struct {
	Center geo.Point
	// Records is the number of trace records inside the cluster; the
	// PIT-attack uses it as the POI weight.
	Records int
	// Dwell is the total time spent in the cluster.
	Dwell time.Duration
	// First and Last bound the visit in time (Unix seconds).
	First, Last int64
}

// String renders the POI compactly.
func (p POI) String() string {
	return fmt.Sprintf("poi(%v, %d recs, %s)", p.Center, p.Records, p.Dwell)
}

// Extractor clusters traces into POIs.
type Extractor struct {
	// MaxDiameter bounds the spatial extent of a cluster in meters.
	MaxDiameter float64
	// MinDwell is the minimum time spent in a cluster for it to count
	// as a POI.
	MinDwell time.Duration
	// MergeDist merges extracted POIs whose centers are closer than
	// this many meters (repeated visits to the same place).
	MergeDist float64
}

// NewExtractor returns an extractor with the paper's parameters.
func NewExtractor() Extractor {
	return Extractor{
		MaxDiameter: DefaultMaxDiameter,
		MinDwell:    DefaultMinDwell,
		MergeDist:   DefaultMergeDist,
	}
}

// Extract returns the POIs of t, ordered by descending record count
// (the state order of the PIT-attack's Markov chains).
func (e Extractor) Extract(t trace.Trace) []POI {
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

	// The open cluster is its record count, first and last timestamp
	// and running centroid: nothing else of its records is needed.
	var pois []POI
	var count int
	var first, last int64
	var centroid geo.Point

	flush := func() {
		if count > 0 && last-first >= minDwell {
			pois = append(pois, POI{
				Center:  centroid,
				Records: count,
				Dwell:   time.Duration(last-first) * time.Second,
				First:   first,
				Last:    last,
			})
		}
	}

	half := maxD / 2
	for _, r := range t.Records {
		p := r.Point()
		// A record joins the cluster if it stays within MaxDiameter/2 of
		// the running centroid (the streaming approximation of the diameter
		// bound). SurelyWithin admits most dwelling records unmeasured and
		// LatGap ≤ FastDistance rejects most others; only the rest are
		// measured.
		if count > 0 && (geo.SurelyWithin(centroid, p, half) ||
			geo.LatGap(centroid, p) <= half && geo.FastDistance(centroid, p) <= half) {
			count++
			last = r.TS
			n := float64(count)
			centroid = geo.Point{
				Lat: centroid.Lat + (p.Lat-centroid.Lat)/n,
				Lon: centroid.Lon + (p.Lon-centroid.Lon)/n,
			}
			continue
		}
		flush()
		count, first, last, centroid = 1, r.TS, r.TS, p
	}
	flush()

	pois = e.merge(pois)
	slices.SortStableFunc(pois, func(a, b POI) int { return cmp.Compare(b.Records, a.Records) })
	return pois
}

// merge fuses POIs whose centers are within MergeDist, accumulating
// their weights; repeated daily visits to home/work then appear as a
// single heavy POI. It reuses pois, which Extract has just made.
func (e Extractor) merge(pois []POI) []POI {
	dist := e.MergeDist
	if dist <= 0 {
		return pois
	}
	// Fused in place: merged never outgrows the POIs already read.
	merged := pois[:0]
	for _, p := range pois {
		found := false
		for i := range merged {
			if geo.FastDistance(merged[i].Center, p.Center) <= dist {
				m := &merged[i]
				total := float64(m.Records + p.Records)
				w := float64(p.Records) / total
				m.Center = geo.Interpolate(m.Center, p.Center, w)
				m.Records += p.Records
				m.Dwell += p.Dwell
				if p.First < m.First {
					m.First = p.First
				}
				if p.Last > m.Last {
					m.Last = p.Last
				}
				found = true
				break
			}
		}
		if !found {
			merged = append(merged, p)
		}
	}
	return merged
}

// TotalRecords sums the record counts of the POIs.
func TotalRecords(pois []POI) int {
	var n int
	for _, p := range pois {
		n += p.Records
	}
	return n
}

// Weights returns the record-count distribution across POIs, normalised
// to sum to 1 (the PIT-attack's POI weights).
func Weights(pois []POI) []float64 {
	total := TotalRecords(pois)
	ws := make([]float64, len(pois))
	if total == 0 {
		return ws
	}
	for i, p := range pois {
		ws[i] = float64(p.Records) / float64(total)
	}
	return ws
}
