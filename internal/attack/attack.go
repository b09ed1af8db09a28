// Package attack implements the user re-identification attacks of the
// paper: AP-Attack (heatmaps, [22]), POI-Attack (points of interest,
// [27]) and PIT-Attack (mobility Markov chains, [16]).
//
// Every attack follows the two-phase protocol of §2.2: Train builds
// per-user mobility profiles from background knowledge H (past,
// unprotected traces), and Identify links an anonymous trace to the
// closest profile. Attacks are safe for concurrent Identify calls once
// trained — profiles are immutable after Train.
//
// The paper's protection predicate (Eq. 4–6) has one implementation,
// Set.ReIdentifiesBatch (batch.go): the engine's per-candidate check
// (Set.ReIdentifies) is a batch of one, and the service's re-audit and
// eval's dynamic oracle pass whole batches.
//
// Training is parallel: each attack builds one profile per background
// trace on GOMAXPROCS workers (par.Collect), and the profiles keep
// background order: the slice equals, float for float and in order,
// what a sequential loop builds, so the batch scans' profile blocks are
// unchanged too. TrainAll additionally extracts every trace's POIs once
// for the POI- and PIT-attacks when their extractors match.
package attack

import (
	"fmt"

	"mood/internal/trace"
)

// Verdict is the outcome of an identification attempt.
type Verdict struct {
	// User is the identity the attack assigns to the trace; empty when
	// the attack cannot build a profile from the trace at all.
	User string
	// Score is the profile distance of the chosen user (lower = more
	// confident, scale is attack-specific).
	Score float64
	// Margin is the runner-up gap: the second-best profile's score
	// minus Score, ≥ 0 on the attack's own scale. Large margins mean
	// confident re-identification — the ordering key for
	// risk-prioritised re-audits. It is +Inf when only one profile
	// produced a score (no runner-up exists; note +Inf does not
	// survive JSON encoding), and exactly 0 on a tie, which is broken
	// toward the lowest user ID.
	Margin float64
	// OK reports whether the attack produced a verdict. A false OK
	// counts as a failed re-identification (Eq. 4's Aₖ(T) ≠ U).
	OK bool
}

// Attack is a re-identification attack A : (R² × R⁺)* → U (Eq. 1).
type Attack interface {
	// Name identifies the attack in reports.
	Name() string
	// Train builds the per-user profiles from background traces.
	Train(background []trace.Trace) error
	// Identify links an anonymous trace to the closest known profile.
	Identify(t trace.Trace) Verdict
}

// Set bundles several trained attacks; MooD's engine evaluates candidate
// obfuscations against all of them.
type Set []Attack

// TrainAll trains every attack on the same background knowledge. The
// POI- and PIT-attacks train from one shared POI extraction per trace
// when their extractor configs match (as in BatchIdentify); every
// attack ends up with exactly the profiles its own Train would build.
func TrainAll(attacks Set, background []trace.Trace) error {
	cache := poiCache{ts: background}
	all := indices(len(background))
	for _, atk := range attacks {
		var err error
		switch a := atk.(type) {
		case *POIAttack:
			err = a.trainPOIs(background, cache.extract(a.Extractor, all))
		case *PIT:
			err = a.trainPOIs(background, cache.extract(a.Extractor, all))
		default:
			err = atk.Train(background)
		}
		if err != nil {
			return fmt.Errorf("attack: training %s: %w", atk.Name(), err)
		}
	}
	return nil
}

// ReIdentifies reports whether any attack in the set links t back to
// trueUser, and returns the name of the first attack that does.
// This is the predicate of the paper's protection definitions (Eq. 4–6):
// a trace is protected iff *no* attack re-identifies it. It is
// ReIdentifiesBatch over a batch of one.
func (s Set) ReIdentifies(t trace.Trace, trueUser string) (bool, string) {
	r := s.ReIdentifiesBatch([]trace.Trace{t}, []string{trueUser})[0]
	return r.Hit, r.Attack
}

// Names returns the attack names in order.
func (s Set) Names() []string {
	out := make([]string, len(s))
	for i, a := range s {
		out[i] = a.Name()
	}
	return out
}
