// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus the ablations called out in DESIGN.md and
// micro-benchmarks of the hot components.
//
// The full evaluation matrix (4 datasets × 6 strategies × 3 attacks) is
// computed once per `go test -bench` invocation and cached; each
// figure benchmark then re-derives its series from the cached run and
// reports the headline numbers via b.ReportMetric. Run with:
//
//	go test -bench=. -benchmem
//
// For the paper-scale user counts use cmd/moodbench -scale=paper.
package mood_test

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"mood/internal/attack"
	"mood/internal/core"
	"mood/internal/eval"
	"mood/internal/lppm"
	"mood/internal/mathx"
	"mood/internal/metrics"
	"mood/internal/synth"
	"mood/internal/trace"
)

const benchSeed = 42

var (
	benchOnce   sync.Once
	benchMulti  eval.Run // all three attacks (Figures 2, 3, 7, 8, 9, 10)
	benchSingle eval.Run // AP-attack only (Figure 6)
	benchRunErr error
)

// benchRuns computes the two evaluation runs once and reuses them.
func benchRuns(b *testing.B) (multi, single eval.Run) {
	b.Helper()
	benchOnce.Do(func() {
		benchMulti, benchRunErr = eval.RunAll(eval.Config{Scale: synth.ScaleBench, Seed: benchSeed})
		if benchRunErr != nil {
			return
		}
		benchSingle, benchRunErr = eval.RunAll(eval.Config{
			Scale: synth.ScaleBench, Seed: benchSeed, SingleAttack: true,
		})
	})
	if benchRunErr != nil {
		b.Fatal(benchRunErr)
	}
	return benchMulti, benchSingle
}

// BenchmarkTable1Datasets regenerates Table 1 (dataset description).
func BenchmarkTable1Datasets(b *testing.B) {
	run, _ := benchRuns(b)
	b.ResetTimer()
	var users, records int
	for i := 0; i < b.N; i++ {
		users, records = 0, 0
		for _, d := range run.Datasets {
			users += d.Users
			records += d.Records
		}
	}
	b.ReportMetric(float64(users), "users")
	b.ReportMetric(float64(records), "records")
}

// BenchmarkFigure2NonProtected regenerates Figure 2: the ratio of
// non-protected users under single LPPMs and HybridLPPM.
func BenchmarkFigure2NonProtected(b *testing.B) {
	run, _ := benchRuns(b)
	for _, d := range run.Datasets {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			var ratios map[string]float64
			for i := 0; i < b.N; i++ {
				ratios = make(map[string]float64)
				for _, s := range []string{eval.StratGeoI, eval.StratTRL, eval.StratHMC, eval.StratHybrid} {
					se, ok := d.Strategy(s)
					if !ok {
						b.Fatalf("missing strategy %s", s)
					}
					ratios[s] = 1 - se.ProtectedRatio()
				}
			}
			b.ReportMetric(100*ratios[eval.StratGeoI], "pct_geoi")
			b.ReportMetric(100*ratios[eval.StratTRL], "pct_trl")
			b.ReportMetric(100*ratios[eval.StratHMC], "pct_hmc")
			b.ReportMetric(100*ratios[eval.StratHybrid], "pct_hybrid")
		})
	}
}

// BenchmarkFigure3DataLoss regenerates Figure 3: data loss of single
// LPPMs and HybridLPPM.
func BenchmarkFigure3DataLoss(b *testing.B) {
	run, _ := benchRuns(b)
	for _, d := range run.Datasets {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			var loss map[string]float64
			for i := 0; i < b.N; i++ {
				loss = make(map[string]float64)
				for _, s := range []string{eval.StratGeoI, eval.StratTRL, eval.StratHMC, eval.StratHybrid} {
					se, _ := d.Strategy(s)
					loss[s] = se.DataLoss
				}
			}
			b.ReportMetric(100*loss[eval.StratGeoI], "pct_geoi")
			b.ReportMetric(100*loss[eval.StratHybrid], "pct_hybrid")
		})
	}
}

// BenchmarkFigure6SingleAttack regenerates Figure 6: non-protected users
// against AP-attack alone, per strategy.
func BenchmarkFigure6SingleAttack(b *testing.B) {
	_, run := benchRuns(b)
	benchNonProtected(b, run)
}

// BenchmarkFigure7MultiAttack regenerates Figure 7: non-protected users
// against all three attacks, per strategy.
func BenchmarkFigure7MultiAttack(b *testing.B) {
	run, _ := benchRuns(b)
	benchNonProtected(b, run)
}

func benchNonProtected(b *testing.B, run eval.Run) {
	b.Helper()
	for _, d := range run.Datasets {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			var counts map[string]int
			for i := 0; i < b.N; i++ {
				counts = make(map[string]int)
				for _, s := range eval.StrategyOrder {
					se, ok := d.Strategy(s)
					if !ok {
						b.Fatalf("missing strategy %s", s)
					}
					counts[s] = se.NonProtected
				}
			}
			b.ReportMetric(float64(counts[eval.StratNone]), "none")
			b.ReportMetric(float64(counts[eval.StratGeoI]), "geoi")
			b.ReportMetric(float64(counts[eval.StratTRL]), "trl")
			b.ReportMetric(float64(counts[eval.StratHMC]), "hmc")
			b.ReportMetric(float64(counts[eval.StratHybrid]), "hybrid")
			b.ReportMetric(float64(counts[eval.StratMooD]), "mood")
			// The paper's ordering must hold: MooD <= Hybrid <= HMC.
			if counts[eval.StratMooD] > counts[eval.StratHybrid] {
				b.Fatalf("MooD (%d) worse than Hybrid (%d)", counts[eval.StratMooD], counts[eval.StratHybrid])
			}
		})
	}
}

// BenchmarkFigure8FineGrained regenerates Figure 8: the share of 24 h
// sub-traces the fine-grained stage protects for each remaining orphan.
func BenchmarkFigure8FineGrained(b *testing.B) {
	run, _ := benchRuns(b)
	var orphans int
	var ratioSum float64
	for i := 0; i < b.N; i++ {
		orphans, ratioSum = 0, 0
		for _, d := range run.Datasets {
			for _, fg := range d.FineGrained {
				orphans++
				ratioSum += fg.Ratio()
			}
		}
	}
	b.ReportMetric(float64(orphans), "orphan_users")
	if orphans > 0 {
		b.ReportMetric(100*ratioSum/float64(orphans), "pct_subtraces_protected")
	}
}

// BenchmarkFigure9Utility regenerates Figure 9: distortion bands of
// protected users per strategy.
func BenchmarkFigure9Utility(b *testing.B) {
	run, _ := benchRuns(b)
	for _, strat := range []string{eval.StratGeoI, eval.StratTRL, eval.StratHMC, eval.StratHybrid, eval.StratMooD} {
		strat := strat
		b.Run(strat, func(b *testing.B) {
			var bands map[metrics.Band]int
			var protected int
			for i := 0; i < b.N; i++ {
				bands = make(map[metrics.Band]int)
				protected = 0
				for _, d := range run.Datasets {
					se, ok := d.Strategy(strat)
					if !ok {
						continue
					}
					for band, n := range se.Bands {
						bands[band] += n
						protected += n
					}
				}
			}
			if protected == 0 {
				b.Skip("strategy protected nobody at this scale")
			}
			b.ReportMetric(100*float64(bands[metrics.BandLow])/float64(protected), "pct_lt500m")
			b.ReportMetric(100*float64(bands[metrics.BandMedium])/float64(protected), "pct_lt1000m")
			b.ReportMetric(100*float64(bands[metrics.BandHigh])/float64(protected), "pct_lt5000m")
			b.ReportMetric(100*float64(bands[metrics.BandExtreme])/float64(protected), "pct_ge5000m")
		})
	}
}

// BenchmarkFigure10DataLoss regenerates Figure 10: data loss of MooD vs
// all competitors.
func BenchmarkFigure10DataLoss(b *testing.B) {
	run, _ := benchRuns(b)
	for _, d := range run.Datasets {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			var moodLoss, hybridLoss float64
			for i := 0; i < b.N; i++ {
				se, _ := d.Strategy(eval.StratMooD)
				moodLoss = se.DataLoss
				he, _ := d.Strategy(eval.StratHybrid)
				hybridLoss = he.DataLoss
			}
			b.ReportMetric(100*moodLoss, "pct_mood")
			b.ReportMetric(100*hybridLoss, "pct_hybrid")
			// The headline claim: MooD's loss is near zero and never
			// exceeds the best competitor's.
			if moodLoss > hybridLoss+1e-9 {
				b.Fatalf("MooD loss %.2f%% exceeds Hybrid %.2f%%", 100*moodLoss, 100*hybridLoss)
			}
		})
	}
}

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

// BenchmarkAblationSplit compares outer split strategies for the
// fine-grained stage (paper §6: fixed slices vs time gaps vs distance).
func BenchmarkAblationSplit(b *testing.B) {
	env := ablation(b)
	splitters := []trace.Splitter{
		trace.FixedDurationSplitter{D: 24 * time.Hour},
		trace.FixedDurationSplitter{D: 12 * time.Hour},
		trace.GapSplitter{Gap: 4 * time.Hour},
		trace.DistanceSplitter{D: 30000},
	}
	for _, sp := range splitters {
		sp := sp
		b.Run(sp.Name(), func(b *testing.B) {
			var lost, pieces int
			for i := 0; i < b.N; i++ {
				engine := &core.Engine{
					LPPMs: env.lppms, Attacks: env.atks, Seed: benchSeed, OuterSplit: sp,
				}
				results, err := engine.ProtectDataset(env.test)
				if err != nil {
					b.Fatal(err)
				}
				lost, pieces = 0, 0
				for _, r := range results {
					lost += r.LostRecords
					pieces += len(r.Pieces)
				}
			}
			b.ReportMetric(float64(lost), "lost_records")
			b.ReportMetric(float64(pieces), "pieces")
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
// Micro-benchmarks of the hot components (real per-op costs).

func benchWalk(n int) trace.Trace {
	cfg := synth.PrivamovLike(synth.ScaleTiny, 5)
	cfg.NumUsers = 1
	cfg.Days = 4
	d := synth.MustGenerate(cfg)
	t := d.Traces[0]
	if t.Len() > n {
		t.Records = t.Records[:n]
	}
	return t
}

func BenchmarkGeoIObfuscate(b *testing.B) {
	t := benchWalk(2000)
	g := lppm.NewGeoI()
	rng := mathx.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Obfuscate(rng, t); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t.Len()), "records")
}

func BenchmarkTRLObfuscate(b *testing.B) {
	t := benchWalk(2000)
	mech := lppm.NewTRL()
	rng := mathx.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mech.Obfuscate(rng, t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttackIdentify(b *testing.B) {
	env := ablation(b)
	t := env.test.Traces[0]
	for _, a := range env.atks {
		a := a
		b.Run(a.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = a.Identify(t)
			}
		})
	}
}

func BenchmarkSTDMetric(b *testing.B) {
	t := benchWalk(4000)
	obf, err := lppm.NewGeoI().Obfuscate(mathx.NewRand(2), t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = metrics.STD(t, obf)
	}
}

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

func BenchmarkSynthGenerate(b *testing.B) {
	cfg := synth.MDCLike(synth.ScaleTiny, 9)
	cfg.NumUsers = 4
	cfg.Days = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
