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
// the per-trace Set.ReIdentifies (batch.go): the engine asks it once
// per candidate, and Set.ReIdentifiesBatch — the service's re-audit,
// eval's dynamic oracle — is its parallel fan-out over many traces.
//
// Training is a view: the AP-, POI- and PIT-attacks read their profiles
// from one profile.Set, which builds each user's heatmap, POIs and
// Markov chain once, in parallel, and keeps background order — the
// profiles equal, float for float and in order, what a sequential loop
// builds. mood.NewPipeline hands the same Set to HMC, so the attacks and
// HMC's imitation pool share every heatmap.
package attack

import (
	"fmt"

	"mood/internal/profile"
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

// DefaultSet returns the paper's attack set, untrained: AP, POI, PIT.
func DefaultSet() Set { return Set{NewAP(), NewPOIAttack(), NewPIT()} }

// TrainAll trains every attack on one profile.Set of background at the
// paper's cell size (see TrainOn).
func TrainAll(attacks Set, background []trace.Trace) error {
	return attacks.TrainOn(profile.New(background, 0))
}

// profiled is an attack that trains as a view over a profile.Set.
type profiled interface {
	trainOn(ps *profile.Set) error
}

// TrainOn trains every attack on the background knowledge ps profiles.
// The AP-, POI- and PIT-attacks become views over ps's users, so each
// feature is built once for all of them (and for HMC, when it shares
// ps); any other attack trains through Train on ps's background.
func (s Set) TrainOn(ps *profile.Set) error {
	for _, atk := range s {
		var err error
		if p, ok := atk.(profiled); ok {
			err = p.trainOn(ps)
		} else {
			err = atk.Train(ps.Background())
		}
		if err != nil {
			return fmt.Errorf("attack: training %s: %w", atk.Name(), err)
		}
	}
	return nil
}

// Names returns the attack names in order.
func (s Set) Names() []string {
	out := make([]string, len(s))
	for i, a := range s {
		out[i] = a.Name()
	}
	return out
}
