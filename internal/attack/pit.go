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
	trained  bool
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
	a.profiles, a.trained = profiles, true
	return nil
}

// scans reports whether Identify can ever produce a verdict.
func (a *PIT) scans() bool { return a.trained && len(a.profiles) > 0 }

// Identify implements Attack.
func (a *PIT) Identify(t trace.Trace) Verdict {
	if !a.scans() {
		return Verdict{}
	}
	return a.identifyChain(mmc.Build(poi.NewExtractor(), t))
}

// identifyChain is the profile scan over the anonymous chain, shared
// by Identify and BatchIdentify. The chain's stationary distribution is
// fixed across the scan, so it is computed once; StatsProxBounded
// abandons profiles whose stationary part alone reaches the bound.
func (a *PIT) identifyChain(c mmc.Chain) Verdict {
	if c.Empty() {
		return Verdict{}
	}
	stat := c.Stationary()
	return argmin(a.profiles, func(i int, bound float64) float64 {
		p := &a.profiles[i]
		return mmc.StatsProxBounded(c, p.chain, stat, p.stat, bound)
	})
}

// buildChain builds a trace's chain from pre-extracted POIs — the
// Set-level batch paths extract once and share with the POI-attack.
func buildChain(pois []poi.POI, t trace.Trace) mmc.Chain {
	return mmc.BuildFromPOIs(poi.NewExtractor(), pois, t)
}

// hitChain answers the predicate for the trace behind chain c
// (ownerHit).
func (a *PIT) hitChain(c mmc.Chain, owner string) bool {
	if c.Empty() {
		return false
	}
	stat := c.Stationary()
	return ownerHit(a.profiles, owner, func(i int, bound float64) float64 {
		p := &a.profiles[i]
		return mmc.StatsProxBounded(c, p.chain, stat, p.stat, bound)
	})
}
