package attack

import (
	"fmt"
	"math"

	"mood/internal/geo"
	"mood/internal/poi"
	"mood/internal/profile"
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
	profiles []poiProfile
}

type poiProfile struct {
	user string
	pois []poi.POI
}

var _ Attack = (*POIAttack)(nil)

// NewPOIAttack returns an untrained POI-attack. POIs are extracted with
// the paper's 200 m / 1 h parameters.
func NewPOIAttack() *POIAttack { return &POIAttack{} }

// Name implements Attack.
func (*POIAttack) Name() string { return "POI" }

// Train implements Attack. Users without dwell structure yield no
// profile; a background where *nobody* can be profiled is still a valid
// training outcome (the attack will simply never identify anyone), but
// an empty background is a caller error.
func (a *POIAttack) Train(background []trace.Trace) error {
	return a.trainOn(profile.New(background, 0))
}

func (a *POIAttack) trainOn(ps *profile.Set) error {
	if len(ps.Background()) == 0 {
		return fmt.Errorf("attack: POI training needs background traces")
	}
	var profiles []poiProfile
	users := ps.POIs()
	for i := range users {
		if u := &users[i]; len(u.POIs) > 0 { // users without dwell structure cannot be profiled
			profiles = append(profiles, poiProfile{user: u.ID, pois: u.POIs})
		}
	}
	a.profiles = profiles
	return nil
}

// Identify implements Attack.
func (a *POIAttack) Identify(t trace.Trace) Verdict {
	s, ok := a.scorer(&anon{t: t})
	if !ok {
		return Verdict{}
	}
	return argmin(a.profiles, s.score)
}

// poiScorer is the POI-attack's profile score over one trace's POIs,
// which feeds both Identify's argmin and the predicate's ownerHit: a
// struct, whose method value stays on its caller's stack.
type poiScorer struct {
	pois     []poi.POI
	weights  []float64
	profiles []poiProfile
}

func (s *poiScorer) score(i int, bound float64) float64 {
	return poiSetDistance(s.pois, s.weights, s.profiles[i].pois, bound)
}

// scorer returns the scorer over x's POIs; false when there is nothing
// to score.
func (a *POIAttack) scorer(x *anon) (poiScorer, bool) {
	if len(a.profiles) == 0 || len(x.extract()) == 0 {
		return poiScorer{}, false
	}
	return poiScorer{pois: x.pois, weights: poi.Weights(x.pois), profiles: a.profiles}, true
}

// poiSetDistance is the weighted mean distance from each anonymous POI
// to the nearest profile POI. Weighting by record mass makes home/work
// dominate, as in the original attack's similarity function. Every term
// is non-negative, so the accumulation abandons a profile as soon as the
// partial distance reaches bound (the best score so far); a completed
// scan returns the exact distance, so verdicts match a full scan. The
// nearest-POI scan skips a profile POI whose geo.LatGap already reaches
// best, which cannot change the minimum.
func poiSetDistance(anon []poi.POI, weights []float64, profile []poi.POI, bound float64) float64 {
	var d float64
	for i, ap := range anon {
		best := math.Inf(1)
		for _, pp := range profile {
			if geo.LatGap(ap.Center, pp.Center) >= best {
				continue // cannot be nearer than best
			}
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
