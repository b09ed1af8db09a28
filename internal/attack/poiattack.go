package attack

import (
	"fmt"
	"math"

	"mood/internal/geo"
	"mood/internal/par"
	"mood/internal/poi"
	"mood/internal/trace"
)

// POIAttack is the attack of Primault et al. [27]: each user's profile
// is the set of their Points of Interest; an anonymous trace is
// attributed to the profile whose POIs are geographically closest.
//
// Unlike AP, this attack needs dwell structure: if no POIs can be
// extracted from the anonymous trace (e.g. after heavy perturbation),
// the attack produces no verdict — which counts as failed
// re-identification.
type POIAttack struct {
	// Extractor configures POI clustering; the zero value uses the
	// paper's 200 m / 1 h parameters.
	Extractor poi.Extractor

	profiles []poiProfile
	trained  bool
}

type poiProfile struct {
	user string
	pois []poi.POI
}

var _ Attack = (*POIAttack)(nil)

// NewPOIAttack returns a POI-attack with the paper's parameters.
func NewPOIAttack() *POIAttack {
	return &POIAttack{Extractor: poi.NewExtractor()}
}

// Name implements Attack.
func (*POIAttack) Name() string { return "POI" }

// Train implements Attack. Users without dwell structure yield no
// profile; a background where *nobody* can be profiled is still a valid
// training outcome (the attack will simply never identify anyone), but
// an empty background is a caller error.
func (a *POIAttack) Train(background []trace.Trace) error {
	return a.trainPOIs(background, extractPOIs(a.Extractor, background))
}

// trainPOIs trains from pois[i], the POIs a.Extractor extracts from
// background[i] — TrainAll shares one extraction with the PIT-attack.
func (a *POIAttack) trainPOIs(background []trace.Trace, pois [][]poi.POI) error {
	if len(background) == 0 {
		return fmt.Errorf("attack: POI training needs background traces")
	}
	a.profiles = a.profiles[:0]
	for i, t := range background {
		if len(pois[i]) == 0 {
			continue // user without dwell structure cannot be profiled
		}
		a.profiles = append(a.profiles, poiProfile{user: t.User, pois: pois[i]})
	}
	a.trained = true
	return nil
}

// scans reports whether Identify can ever produce a verdict.
func (a *POIAttack) scans() bool { return a.trained && len(a.profiles) > 0 }

// Identify implements Attack.
func (a *POIAttack) Identify(t trace.Trace) Verdict {
	if !a.scans() {
		return Verdict{}
	}
	return a.identifyPOIs(a.Extractor.Extract(t))
}

// identifyPOIs is the profile scan over pre-extracted anonymous POIs,
// shared by Identify and BatchIdentify. Completed distances fold
// through topTwo: ties break toward the lowest user ID (not profile
// insertion order) and the runner-up feeds Verdict.Margin.
func (a *POIAttack) identifyPOIs(pois []poi.POI) Verdict {
	if len(pois) == 0 {
		return Verdict{}
	}
	weights := poi.Weights(pois)
	k := newTopTwo()
	for pi := range a.profiles {
		p := &a.profiles[pi]
		bound := k.bound()
		if d := poiSetDistance(pois, weights, p.pois, bound); d < bound {
			k.consider(p.user, d)
		}
	}
	return k.verdict()
}

// identifyBatchPOIs scans pre-extracted POI sets in parallel spans.
func (a *POIAttack) identifyBatchPOIs(pois [][]poi.POI) []Verdict {
	out := make([]Verdict, len(pois))
	par.Spans(len(pois), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = a.identifyPOIs(pois[i])
		}
	})
	return out
}

// hitPOIs is the owner-seeded audit scan: does Identify attribute a
// trace with these POIs to owner? See AP.hitOne for the argument; the
// structure is identical with poiSetDistance as the exact scorer.
func (a *POIAttack) hitPOIs(pois []poi.POI, owner string) bool {
	if !a.scans() || len(pois) == 0 {
		return false
	}
	weights := poi.Weights(pois)
	so := math.Inf(1)
	seen := false
	for pi := range a.profiles {
		p := &a.profiles[pi]
		if p.user != owner {
			continue
		}
		if d := poiSetDistance(pois, weights, p.pois, math.Inf(1)); d < so {
			so, seen = d, true
		}
	}
	if !seen {
		return false
	}
	bound := nextUp(so)
	for pi := range a.profiles {
		p := &a.profiles[pi]
		if p.user == owner {
			continue
		}
		d := poiSetDistance(pois, weights, p.pois, bound)
		if d < bound && (d < so || (d == so && p.user < owner)) {
			return false
		}
	}
	return true
}

// extractPOIs runs e.Extract over every trace in parallel; the result
// feeds the POI- and PIT-attacks' training and batch scans.
func extractPOIs(e poi.Extractor, ts []trace.Trace) [][]poi.POI {
	out := make([][]poi.POI, len(ts))
	par.Each(len(ts), func(i int) { out[i] = e.Extract(ts[i]) })
	return out
}

// poiSetDistance is the weighted mean distance from each anonymous POI
// to the nearest profile POI. Weighting by record mass makes home/work
// dominate, as in the original attack's similarity function. Every term
// is non-negative, so the accumulation abandons a profile as soon as the
// partial distance reaches bound (the best score so far); a completed
// scan returns the exact distance, so verdicts match a full scan.
func poiSetDistance(anon []poi.POI, weights []float64, profile []poi.POI, bound float64) float64 {
	var d float64
	for i, ap := range anon {
		best := math.Inf(1)
		for _, pp := range profile {
			if dd := geo.FastDistance(ap.Center, pp.Center); dd < best {
				best = dd
			}
		}
		d += weights[i] * best
		if d >= bound {
			return d
		}
	}
	return d
}
