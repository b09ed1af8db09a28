package eval

import (
	"fmt"
	"slices"

	"mood/internal/attack"
	"mood/internal/core"
	"mood/internal/lppm"
	"mood/internal/profile"
	"mood/internal/synth"
	"mood/internal/trace"
)

// DynamicConfig parameterises the dynamic-protection experiment — the
// paper's §6 extension: "the training set of the re-identification
// attacks can be periodically updated, in order to better feed our
// system and have a dynamic protection that evolves with the possible
// evolutions of the user behaviour".
//
// The experiment publishes data in rounds. A *static* MooD verifies
// candidates against attacks trained once on the initial background; a
// *dynamic* MooD retrains its verification attacks at every round on
// everything an attacker could have collected so far. Leaks are counted
// against an oracle attacker that always holds the up-to-date history,
// so static verification degrades as users drift while dynamic
// verification tracks them.
type DynamicConfig struct {
	// Scale and Seed select the synthetic dataset.
	Scale synth.Scale
	Seed  uint64
	// Dataset is the preset name (default "mdc").
	Dataset string
	// Rounds is the number of publication rounds carved from the test
	// period (default 3).
	Rounds int
	// Retrain selects dynamic (true) or static (false) verification.
	Retrain bool
}

// RoundResult is one publication round's outcome.
type RoundResult struct {
	// Round is the 1-based round number.
	Round int
	// Users is the number of users who published this round.
	Users int
	// Leaks counts published pieces the oracle attacker re-identifies.
	Leaks int
	// Pieces counts published fragments.
	Pieces int
	// DataLoss is Eq. 7 within the round.
	DataLoss float64
}

// Round is one publication window of the dynamic experiment.
type Round struct {
	// Index is the 1-based window number within the original time span;
	// gaps appear where no user was active (those windows are dropped).
	Index int
	// Data is the raw traces published in the window.
	Data trace.Dataset
}

// SplitRounds cuts the dataset's time span into n contiguous publication
// windows (the last window absorbs the remainder). Windows where no user
// is active are dropped, so fewer than n rounds may come back; Index
// keeps each round's original window number.
func SplitRounds(d trace.Dataset, n int) ([]Round, error) {
	if n <= 0 {
		return nil, fmt.Errorf("eval: dynamic: %d rounds", n)
	}
	start, end := d.TimeSpan()
	roundLen := (end - start + 1) / int64(n)
	if roundLen <= 0 {
		return nil, fmt.Errorf("eval: dynamic: test period too short for %d rounds", n)
	}
	var out []Round
	for round := 1; round <= n; round++ {
		lo := start + int64(round-1)*roundLen
		hi := lo + roundLen
		if round == n {
			hi = end + 1
		}
		slice := d.Window(lo, hi)
		if slice.NumUsers() == 0 {
			continue
		}
		out = append(out, Round{Index: round, Data: slice})
	}
	return out, nil
}

// DynamicScenario generates the drifted synthetic dataset of the dynamic
// experiment and carves it into the initial background knowledge and the
// publication rounds. Both RunDynamic and the service-tier tests build
// on it, so offline and online dynamic protection are exercised on
// identical data.
func DynamicScenario(cfg DynamicConfig) (initialBG trace.Dataset, rounds []Round, err error) {
	if cfg.Scale == 0 {
		cfg.Scale = synth.ScaleTiny
	}
	if cfg.Dataset == "" {
		cfg.Dataset = "mdc"
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 3
	}

	synthCfg, err := synth.PresetByName(cfg.Dataset, cfg.Scale, cfg.Seed)
	if err != nil {
		return trace.Dataset{}, nil, err
	}
	// Force heavy mid-period drift: that is the behaviour evolution the
	// extension is about. The drift lands exactly at the train/test
	// boundary, so static verifiers are stale from round 1 on.
	synthCfg.DriftFraction = 0.6
	full, err := synth.Generate(synthCfg)
	if err != nil {
		return trace.Dataset{}, nil, err
	}
	initialBG, test := full.SplitTrainTest(0.5, 20)
	if test.NumUsers() < 2 {
		return trace.Dataset{}, nil, fmt.Errorf("eval: dynamic: only %d active users", test.NumUsers())
	}
	rounds, err = SplitRounds(test, cfg.Rounds)
	if err != nil {
		return trace.Dataset{}, nil, err
	}
	return initialBG, rounds, nil
}

// RunDynamic executes the rounds and returns their outcomes.
func RunDynamic(cfg DynamicConfig) ([]RoundResult, error) {
	initialBG, rounds, err := DynamicScenario(cfg)
	if err != nil {
		return nil, err
	}

	// Static verifier: trained once on the initial background. Each
	// profile set is shared by its attacks and HMC, so the static HMC
	// rebuilt every round reuses the initial background's heatmaps.
	staticBG := profile.New(initialBG.Traces, 0)
	staticAtks := attack.DefaultSet()
	if err := staticAtks.TrainOn(staticBG); err != nil {
		return nil, err
	}

	attackerBG := initialBG.Traces
	var out []RoundResult
	for _, r := range rounds {
		slice := r.Data

		// Oracle attacker: always up to date with the raw history an
		// adversary could have accumulated before this round.
		attackerPS := profile.New(attackerBG, 0)
		oracle := attack.DefaultSet()
		if err := oracle.TrainOn(attackerPS); err != nil {
			return nil, err
		}

		verifier, verifierBG := staticAtks, staticBG
		if cfg.Retrain {
			verifier, verifierBG = oracle, attackerPS
		}
		hmc, err := lppm.NewHMCOn(verifierBG)
		if err != nil {
			return nil, err
		}
		engine := &core.Engine{
			LPPMs:   []lppm.Mechanism{hmc, lppm.NewGeoI(), lppm.NewTRL()},
			Attacks: verifier,
			Seed:    cfg.Seed + uint64(r.Index),
		}
		results, err := engine.ProtectDataset(slice)
		if err != nil {
			return nil, err
		}

		rr := RoundResult{Round: r.Index, Users: slice.NumUsers(), DataLoss: core.DataLoss(results)}
		// Leak counting judges every piece of the round in one
		// protection-predicate call: the same predicate the engine
		// applied to each candidate, over one batch.
		var pieces []trace.Trace
		var owners []string
		for _, r := range results {
			for _, p := range r.Pieces {
				rr.Pieces++
				pieces = append(pieces, p.Trace.WithUser(""))
				owners = append(owners, r.User)
			}
		}
		for _, ri := range oracle.ReIdentifiesBatch(pieces, owners) {
			if ri.Hit {
				rr.Leaks++
			}
		}
		out = append(out, rr)

		// The adversary keeps collecting: this round's raw data joins
		// the background for the next round (merged per user).
		attackerBG = trace.NewDataset("bg", slices.Concat(attackerBG, slice.Traces)).Traces
	}
	return out, nil
}
