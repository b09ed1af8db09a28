package attack

import (
	"fmt"
	"math"

	"mood/internal/mmc"
	"mood/internal/par"
	"mood/internal/poi"
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
	// Extractor configures the POI clustering that defines MMC states.
	Extractor poi.Extractor

	profiles []pitProfile
	trained  bool
}

type pitProfile struct {
	user  string
	chain mmc.Chain
	// stat is the chain's stationary distribution, computed once at
	// Train time; StatsProx needs it for every comparison and the power
	// iteration is the expensive part.
	stat []float64
}

var _ Attack = (*PIT)(nil)

// NewPIT returns a PIT-attack with the paper's POI parameters.
func NewPIT() *PIT {
	return &PIT{Extractor: poi.NewExtractor()}
}

// Name implements Attack.
func (*PIT) Name() string { return "PIT" }

// Train implements Attack. As with POIAttack, users without dwell
// structure yield no chain; only an empty background is an error.
func (a *PIT) Train(background []trace.Trace) error {
	return a.trainPOIs(background, extractPOIs(a.Extractor, background))
}

// trainPOIs builds the chains from pois[i], the POIs a.Extractor
// extracts from background[i] — TrainAll shares one extraction with the
// POI-attack — chain and stationary distribution in parallel per trace.
func (a *PIT) trainPOIs(background []trace.Trace, pois [][]poi.POI) error {
	if len(background) == 0 {
		return fmt.Errorf("attack: PIT training needs background traces")
	}
	a.profiles = par.Collect(len(background), func(i int) (pitProfile, bool) {
		c := a.buildChain(pois[i], background[i])
		if c.Empty() {
			return pitProfile{}, false
		}
		return pitProfile{user: background[i].User, chain: c, stat: c.Stationary()}, true
	})
	a.trained = true
	return nil
}

// scans reports whether Identify can ever produce a verdict.
func (a *PIT) scans() bool { return a.trained && len(a.profiles) > 0 }

// Identify implements Attack.
func (a *PIT) Identify(t trace.Trace) Verdict {
	if !a.scans() {
		return Verdict{}
	}
	return a.identifyChain(mmc.Build(a.Extractor, t))
}

// identifyChain is the profile scan over the anonymous chain, shared
// by Identify and BatchIdentify. The chain's stationary distribution
// is fixed across the scan; computing it once and abandoning profiles
// whose stationary part alone exceeds the topTwo bound keeps the loop
// cheap without changing the argmin. Completed distances fold through
// topTwo: ties break toward the lowest user ID and the runner-up feeds
// Verdict.Margin.
func (a *PIT) identifyChain(c mmc.Chain) Verdict {
	if c.Empty() {
		return Verdict{}
	}
	stat := c.Stationary()
	k := newTopTwo()
	for pi := range a.profiles {
		p := &a.profiles[pi]
		bound := k.bound()
		if d := mmc.StatsProxBounded(c, p.chain, stat, p.stat, bound); d < bound {
			k.consider(p.user, d)
		}
	}
	return k.verdict()
}

// buildChain builds a trace's chain from pre-extracted POIs — training
// and the Set-level batch paths extract once and share with the
// POI-attack.
func (a *PIT) buildChain(pois []poi.POI, t trace.Trace) mmc.Chain {
	return mmc.BuildFromPOIs(a.Extractor, pois, t)
}

// identifyBatchPOIs scans traces with pre-extracted POIs in parallel.
func (a *PIT) identifyBatchPOIs(pois [][]poi.POI, ts []trace.Trace) []Verdict {
	out := make([]Verdict, len(ts))
	par.Spans(len(ts), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = a.identifyChain(a.buildChain(pois[i], ts[i]))
		}
	})
	return out
}

// hitChain is the owner-seeded audit scan: does Identify attribute the
// trace behind chain c to owner? See AP.hitOne for the argument; the
// structure is identical with StatsProxBounded as the exact scorer.
func (a *PIT) hitChain(c mmc.Chain, owner string) bool {
	if !a.scans() || c.Empty() {
		return false
	}
	stat := c.Stationary()
	so := math.Inf(1)
	seen := false
	for pi := range a.profiles {
		p := &a.profiles[pi]
		if p.user != owner {
			continue
		}
		if d := mmc.StatsProxBounded(c, p.chain, stat, p.stat, math.Inf(1)); d < so {
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
		d := mmc.StatsProxBounded(c, p.chain, stat, p.stat, bound)
		if d < bound && (d < so || (d == so && p.user < owner)) {
			return false
		}
	}
	return true
}
