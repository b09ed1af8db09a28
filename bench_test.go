// Ablation benchmarks of the engine's knobs and one user's protection
// end to end. Run with:
//
//	go test -bench=. -benchmem
//
// The paper's tables and figures come from cmd/moodbench.
package mood_test

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"mood/internal/attack"
	"mood/internal/core"
	"mood/internal/lppm"
	"mood/internal/synth"
	"mood/internal/trace"
)

const benchSeed = 42

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md A1-A3).

// ablationEnv builds a small trained environment shared by ablations.
type ablationEnv struct {
	train trace.Dataset
	test  trace.Dataset
	atks  attack.Set
	lppms []lppm.Mechanism
}

var (
	ablOnce sync.Once
	ablEnv  *ablationEnv
	ablErr  error
)

func ablation(b *testing.B) *ablationEnv {
	b.Helper()
	ablOnce.Do(func() {
		cfg := synth.GeolifeLike(synth.ScaleTiny, benchSeed)
		cfg.NumUsers = 10
		var d trace.Dataset
		d, ablErr = synth.Generate(cfg)
		if ablErr != nil {
			return
		}
		train, test := d.SplitTrainTest(0.5, 20)
		atks := attack.DefaultSet()
		if ablErr = attack.TrainAll(atks, train.Traces); ablErr != nil {
			return
		}
		var hmc *lppm.HMC
		hmc, ablErr = lppm.NewHMC(0, train.Traces)
		if ablErr != nil {
			return
		}
		ablEnv = &ablationEnv{
			train: train,
			test:  test,
			atks:  atks,
			lppms: []lppm.Mechanism{hmc, lppm.NewGeoI(), lppm.NewTRL()},
		}
	})
	if ablErr != nil {
		b.Fatal(ablErr)
	}
	return ablEnv
}

// BenchmarkAblationSearch compares the paper's brute-force composition
// search with the §6 greedy heuristic: wall time per dataset pass plus
// judged-candidate, attack-call and loss metrics.
func BenchmarkAblationSearch(b *testing.B) {
	env := ablation(b)
	for _, strat := range []core.SearchStrategy{core.BruteForce{}, core.Greedy{}} {
		strat := strat
		b.Run(strat.Name(), func(b *testing.B) {
			var judged, calls, lost int
			for i := 0; i < b.N; i++ {
				engine := &core.Engine{
					LPPMs: env.lppms, Attacks: env.atks, Seed: benchSeed, Search: strat,
				}
				results, err := engine.ProtectDataset(env.test)
				if err != nil {
					b.Fatal(err)
				}
				judged, calls, lost = 0, 0, 0
				for _, r := range results {
					judged += r.Stats.Judged
					calls += r.Stats.AttackCalls
					lost += r.LostRecords
				}
			}
			users := float64(env.test.NumUsers())
			b.ReportMetric(float64(judged)/users, "judged/user")
			b.ReportMetric(float64(calls)/users, "attack_calls/user")
			b.ReportMetric(float64(lost), "lost_records")
		})
	}
}

// BenchmarkAblationDelta sweeps MooD's δ (the fine-grained stop
// threshold): smaller δ recovers more records at a higher search cost.
func BenchmarkAblationDelta(b *testing.B) {
	env := ablation(b)
	for _, delta := range []time.Duration{2 * time.Hour, 4 * time.Hour, 8 * time.Hour, 24 * time.Hour} {
		delta := delta
		b.Run(delta.String(), func(b *testing.B) {
			var lost, candidates int
			for i := 0; i < b.N; i++ {
				engine := &core.Engine{
					LPPMs: env.lppms, Attacks: env.atks, Seed: benchSeed, Delta: delta,
				}
				results, err := engine.ProtectDataset(env.test)
				if err != nil {
					b.Fatal(err)
				}
				lost, candidates = 0, 0
				for _, r := range results {
					lost += r.LostRecords
					candidates += r.Stats.Candidates
				}
			}
			b.ReportMetric(float64(lost), "lost_records")
			b.ReportMetric(float64(candidates), "candidates")
		})
	}
}

// BenchmarkAblationHMCBudget sweeps HMC's translated-cell budget, the
// knob that models the original mechanism's reconstruction loss.
func BenchmarkAblationHMCBudget(b *testing.B) {
	env := ablation(b)
	for _, budget := range []int{8, 24, 64, 1 << 20} {
		budget := budget
		b.Run(budgetName(budget), func(b *testing.B) {
			var nonProtected int
			for i := 0; i < b.N; i++ {
				hmc, err := lppm.NewHMC(0, env.train.Traces)
				if err != nil {
					b.Fatal(err)
				}
				hmc.SetMaxCells(budget)
				single := core.SingleLPPM{LPPM: hmc, Attacks: env.atks, Seed: benchSeed}
				results, err := single.ProtectDataset(env.test)
				if err != nil {
					b.Fatal(err)
				}
				nonProtected = 0
				for _, r := range results {
					if !r.FullyProtected() {
						nonProtected++
					}
				}
			}
			b.ReportMetric(float64(nonProtected), "non_protected")
		})
	}
}

func budgetName(n int) string {
	if n >= 1<<20 {
		return "unbounded"
	}
	return "cells-" + strconv.Itoa(n)
}

// ---------------------------------------------------------------------------
// The engine end to end on one user. The components' micro-benchmarks
// sit beside their packages: lppm (GeoI, TRL), attack (Identify),
// metrics (STD) and synth (Generate).

func BenchmarkMoodProtectUser(b *testing.B) {
	env := ablation(b)
	engine := &core.Engine{LPPMs: env.lppms, Attacks: env.atks, Seed: benchSeed}
	t := env.test.Traces[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Protect(t); err != nil {
			b.Fatal(err)
		}
	}
}
