package attack

import (
	"fmt"

	"mood/internal/mmc"
	"mood/internal/poi"
	"mood/internal/profile"
	"mood/internal/trace"
)

// PIT is the de-anonymization attack of Gambs et al. [16]: users are
// profiled as Mobility Markov Chains and an anonymous trace is
// attributed to the chain minimizing the stats-prox distance (the
// combination of stationary and proximity distances the original paper
// found most effective).
//
// Like POIAttack, PIT needs dwell structure to build a chain; a trace
// that yields no POIs produces no verdict.
type PIT struct {
	profiles []pitProfile
}

type pitProfile struct {
	user  string
	chain mmc.Chain
	// stat is the chain's stationary distribution, computed once per
	// profile set; StatsProxBounded needs it for every comparison and
	// the power iteration is the expensive part.
	stat []float64
}

var _ Attack = (*PIT)(nil)

// NewPIT returns an untrained PIT-attack. Chain states are the POIs of
// the paper's 200 m / 1 h extractor.
func NewPIT() *PIT { return &PIT{} }

// Name implements Attack.
func (*PIT) Name() string { return "PIT" }

// Train implements Attack. As with POIAttack, users without dwell
// structure yield no chain; only an empty background is an error.
func (a *PIT) Train(background []trace.Trace) error {
	return a.trainOn(profile.New(background, 0))
}

func (a *PIT) trainOn(ps *profile.Set) error {
	if len(ps.Background()) == 0 {
		return fmt.Errorf("attack: PIT training needs background traces")
	}
	var profiles []pitProfile
	users := ps.Chains()
	for i := range users {
		if u := &users[i]; !u.Chain.Empty() {
			profiles = append(profiles, pitProfile{user: u.ID, chain: u.Chain, stat: u.Stationary})
		}
	}
	a.profiles = profiles
	return nil
}

// Identify implements Attack.
func (a *PIT) Identify(t trace.Trace) Verdict {
	s, ok := a.scorer(&anon{t: t})
	if !ok {
		return Verdict{}
	}
	return argmin(a.profiles, s.score)
}

// pitScorer is the PIT-attack's profile score over the chain of one
// trace's POIs, as poiScorer is the POI-attack's. The chain's stationary
// distribution is fixed across the scan, so it is computed once;
// StatsProxBounded abandons profiles whose stationary part alone
// reaches the bound.
type pitScorer struct {
	chain    mmc.Chain
	stat     []float64
	profiles []pitProfile
}

func (s *pitScorer) score(i int, bound float64) float64 {
	p := &s.profiles[i]
	return mmc.StatsProxBounded(s.chain, p.chain, s.stat, p.stat, bound)
}

// scorer returns the scorer over the chain of x's POIs; false when there
// is nothing to score.
func (a *PIT) scorer(x *anon) (pitScorer, bool) {
	if len(a.profiles) == 0 {
		return pitScorer{}, false
	}
	c := mmc.BuildFromPOIs(poi.NewExtractor(), x.extract(), x.t)
	if c.Empty() {
		return pitScorer{}, false
	}
	return pitScorer{chain: c, stat: c.Stationary(), profiles: a.profiles}, true
}
