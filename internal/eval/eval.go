// Package eval is the experiment harness: it reproduces every table and
// figure of the paper's evaluation (§4) end to end — dataset generation,
// 15/15-day chronological split, attack training, the LPPM × attack ×
// dataset matrix, MooD and its baselines, and the derived series
// (non-protected users, data loss, utility bands, fine-grained
// sub-trace ratios).
package eval

import (
	"fmt"
	"sort"
	"time"

	"mood/internal/attack"
	"mood/internal/core"
	"mood/internal/lppm"
	"mood/internal/metrics"
	"mood/internal/par"
	"mood/internal/profile"
	"mood/internal/synth"
)

// Strategy names, in the column order of Figures 6, 7 and 10.
const (
	StratNone   = "no-LPPM"
	StratGeoI   = "GeoI"
	StratTRL    = "TRL"
	StratHMC    = "HMC"
	StratHybrid = "HybridLPPM"
	StratMooD   = "MooD"
)

// StrategyOrder is the presentation order of the paper's figures.
var StrategyOrder = []string{StratNone, StratGeoI, StratTRL, StratHMC, StratHybrid, StratMooD}

// Config parameterises a full evaluation run.
type Config struct {
	// Scale selects dataset sizes (synth.ScaleBench by default).
	Scale synth.Scale
	// Seed drives dataset generation, mechanisms and pseudonyms.
	Seed uint64
	// Datasets restricts the run to the named presets (nil = all four).
	Datasets []string
	// TrainFraction is the chronological split point (0.5 in the paper:
	// 15 of 30 days).
	TrainFraction float64
	// MinRecords is the per-half activity threshold for keeping a user.
	MinRecords int
	// SingleAttack restricts the attack set to AP-attack only, as in
	// Figure 6 ("the most powerful attack currently known").
	SingleAttack bool
	// Search selects MooD's composition search strategy.
	Search core.SearchStrategy
	// Delta overrides MooD's δ (0 = the paper's 4 h).
	Delta time.Duration
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = synth.ScaleBench
	}
	if c.TrainFraction <= 0 || c.TrainFraction >= 1 {
		c.TrainFraction = 0.5
	}
	if c.MinRecords <= 0 {
		c.MinRecords = 50
	}
	if len(c.Datasets) == 0 {
		c.Datasets = []string{"mdc", "privamov", "geolife", "cabspotting"}
	}
	return c
}

// StrategyEval is one strategy's outcome on one dataset.
type StrategyEval struct {
	// Strategy is one of the Strat* names.
	Strategy string
	// NonProtected is the number of users not fully protected — the
	// y-axis of Figures 2, 6 and 7.
	NonProtected int
	// DataLoss is Eq. 7's ratio in [0, 1] — Figures 3 and 10.
	DataLoss float64
	// Bands counts fully protected users per distortion band — Figure 9.
	Bands map[metrics.Band]int
	// Results holds the raw per-user outcomes.
	Results []core.Result
}

// ProtectedRatio returns the share of users fully protected.
func (s StrategyEval) ProtectedRatio() float64 {
	if len(s.Results) == 0 {
		return 0
	}
	return 1 - float64(s.NonProtected)/float64(len(s.Results))
}

// FineGrainedUser is one orphan user's Figure 8 bar.
type FineGrainedUser struct {
	// User is the original identity.
	User string
	// Label is the paper-style anonymous label (USER A, USER B, ...).
	Label string
	// SubTraces is the number of 24 h chunks.
	SubTraces int
	// Protected is how many chunks were fully protected.
	Protected int
}

// Ratio returns the protected share of sub-traces.
func (f FineGrainedUser) Ratio() float64 {
	if f.SubTraces == 0 {
		return 0
	}
	return float64(f.Protected) / float64(f.SubTraces)
}

// DatasetEval is one dataset's full evaluation.
type DatasetEval struct {
	// Name is the dataset preset name.
	Name string
	// Location is the modelled city (Table 1).
	Location string
	// Users and Records describe the generated dataset after the
	// activity filter (Table 1).
	Users   int
	Records int
	// TestRecords is |D|_r of the published (test) half, the data-loss
	// denominator.
	TestRecords int
	// Strategies holds one entry per Strat* name, in StrategyOrder.
	Strategies []StrategyEval
	// FineGrained lists the per-orphan Figure 8 bars (users that needed
	// the fine-grained stage under MooD).
	FineGrained []FineGrainedUser
	// AttackHits counts, per attack, how many raw test traces it
	// re-identifies — the per-attack decomposition behind the paper's
	// "AP-attack is the most powerful known attack" claim (§4.3).
	AttackHits map[string]int
}

// Strategy returns the named strategy's evaluation.
func (d DatasetEval) Strategy(name string) (StrategyEval, bool) {
	for _, s := range d.Strategies {
		if s.Strategy == name {
			return s, true
		}
	}
	return StrategyEval{}, false
}

// Run is a complete evaluation across datasets.
type Run struct {
	Config   Config
	Datasets []DatasetEval
}

// locations maps preset names to the cities of Table 1.
var locations = map[string]string{
	"mdc":         "Geneva",
	"privamov":    "Lyon",
	"geolife":     "Beijing",
	"cabspotting": "San Francisco",
}

// RunAll executes the full evaluation described by cfg. Datasets, and
// the strategies within each dataset, are evaluated concurrently: every
// strategy is an independent deterministic protector scanning immutable
// trained attack profiles, so the run's outcome — verdicts, bands, data
// loss, result order — is identical to a sequential pass (the golden
// test asserts it), only the wall clock changes.
func RunAll(cfg Config) (Run, error) { return runAll(cfg, true) }

// runAll is RunAll with the concurrency switchable, so tests can compare
// the parallel run against the sequential reference byte for byte.
//
// Concurrency is bounded per level (datasets, strategies, and the
// per-trace pool inside ProtectDataset), not globally: a parent
// goroutine blocked on its children holds no CPU, so the runnable set is
// the innermost workers and the scheduler multiplexes them onto
// GOMAXPROCS cores. The worst-case goroutine count is the product of the
// level bounds — a few hundred on big hosts, cheap for Go — in exchange
// for never deadlocking the way a single shared token pool could when a
// parent waits on children that need tokens.
func runAll(cfg Config, concurrent bool) (Run, error) {
	cfg = cfg.withDefaults()
	evals := make([]DatasetEval, len(cfg.Datasets))
	errs := make([]error, len(cfg.Datasets))
	boundedForEach(concurrent && len(cfg.Datasets) > 1, len(cfg.Datasets), func(i int) {
		evals[i], errs[i] = runDataset(cfg, cfg.Datasets[i], concurrent)
	})
	for i, err := range errs {
		if err != nil {
			return Run{}, fmt.Errorf("eval: dataset %s: %w", cfg.Datasets[i], err)
		}
	}
	return Run{Config: cfg, Datasets: evals}, nil
}

// boundedForEach runs each(0..n-1), through par.Each when concurrent
// (at most GOMAXPROCS bodies in flight), in order otherwise. Each
// invocation must write only its own slots.
func boundedForEach(concurrent bool, n int, each func(i int)) {
	if concurrent {
		par.Each(n, each)
		return
	}
	for i := 0; i < n; i++ {
		each(i)
	}
}

func runDataset(cfg Config, name string, concurrent bool) (DatasetEval, error) {
	synthCfg, err := synth.PresetByName(name, cfg.Scale, cfg.Seed)
	if err != nil {
		return DatasetEval{}, err
	}
	full, err := synth.Generate(synthCfg)
	if err != nil {
		return DatasetEval{}, err
	}
	train, test := full.SplitTrainTest(cfg.TrainFraction, cfg.MinRecords)
	if train.NumUsers() < 2 {
		return DatasetEval{}, fmt.Errorf("only %d active users after split", train.NumUsers())
	}

	atks := attack.Set{attack.NewAP()}
	if !cfg.SingleAttack {
		atks = attack.DefaultSet()
	}
	ps := profile.New(train.Traces, 0)
	if err := atks.TrainOn(ps); err != nil {
		return DatasetEval{}, err
	}

	hmc, err := lppm.NewHMCOn(ps)
	if err != nil {
		return DatasetEval{}, err
	}
	geoi := lppm.NewGeoI()
	trl := lppm.NewTRL()
	// Distortion order HMC -> Geo-I -> TRL (paper §4.1.2).
	portfolio := []lppm.Mechanism{hmc, geoi, trl}

	de := DatasetEval{
		Name:        name,
		Location:    locations[name],
		Users:       test.NumUsers(),
		Records:     full.NumRecords(),
		TestRecords: test.NumRecords(),
		AttackHits:  make(map[string]int, len(atks)),
	}
	// The attack-hit matrix runs through the batch kernels (verdicts
	// are bit-identical to per-trace Identify calls — the golden test
	// pins the full report bytes).
	for ai, vs := range attack.BatchIdentify(atks, test.Traces) {
		name := atks[ai].Name()
		for ti, v := range vs {
			if v.OK && v.User == test.Traces[ti].User {
				de.AttackHits[name]++
			}
		}
	}

	protectors := []struct {
		name string
		p    core.Protector
	}{
		{StratNone, core.SingleLPPM{LPPM: lppm.Identity{}, Attacks: atks, Seed: cfg.Seed}},
		{StratGeoI, core.SingleLPPM{LPPM: geoi, Attacks: atks, Seed: cfg.Seed}},
		{StratTRL, core.SingleLPPM{LPPM: trl, Attacks: atks, Seed: cfg.Seed}},
		{StratHMC, core.SingleLPPM{LPPM: hmc, Attacks: atks, Seed: cfg.Seed}},
		{StratHybrid, core.Hybrid{LPPMs: portfolio, Attacks: atks, Seed: cfg.Seed}},
		{StratMooD, &core.Engine{
			LPPMs:   portfolio,
			Attacks: atks,
			Seed:    cfg.Seed,
			Search:  cfg.Search,
			Delta:   cfg.Delta,
		}},
	}

	// Every protector is deterministic and scans the same immutable
	// trained state (attacks and HMC profiles are read-only after
	// training, mechanisms are value types, and every stochastic draw is
	// derived from (Seed, user)), so the strategies are independent and
	// can run concurrently. Each goroutine writes only its own slot;
	// presentation order stays StrategyOrder.
	sEvals := make([]StrategyEval, len(protectors))
	sErrs := make([]error, len(protectors))
	var fineG []FineGrainedUser
	runStrategy := func(i int) {
		pr := protectors[i]
		results, err := pr.p.ProtectDataset(test)
		if err != nil {
			sErrs[i] = fmt.Errorf("strategy %s: %w", pr.name, err)
			return
		}
		sEvals[i] = summarise(pr.name, results)
		if pr.name == StratMooD {
			fineG = fineGrained(results)
		}
	}
	boundedForEach(concurrent, len(protectors), runStrategy)
	for _, err := range sErrs {
		if err != nil {
			return DatasetEval{}, err
		}
	}
	de.Strategies = sEvals
	de.FineGrained = fineG
	return de, nil
}

func summarise(name string, results []core.Result) StrategyEval {
	se := StrategyEval{
		Strategy: name,
		Bands:    make(map[metrics.Band]int),
		Results:  results,
	}
	var lost, total int
	for _, r := range results {
		lost += r.LostRecords
		total += r.TotalRecords
		if r.FullyProtected() {
			se.Bands[metrics.BandOf(r.MeanDistortion())]++
		} else {
			se.NonProtected++
		}
	}
	if total > 0 {
		se.DataLoss = float64(lost) / float64(total)
	}
	return se
}

// fineGrained extracts the Figure 8 bars: users whose MooD run needed
// the fine-grained stage, labelled USER A, USER B, ... in user order.
func fineGrained(results []core.Result) []FineGrainedUser {
	var out []FineGrainedUser
	for _, r := range results {
		if !r.UsedFineGrained {
			continue
		}
		fg := FineGrainedUser{User: r.User, SubTraces: len(r.Chunks)}
		for _, c := range r.Chunks {
			if c.Protected() {
				fg.Protected++
			}
		}
		out = append(out, fg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	for i := range out {
		out[i].Label = "USER " + spreadsheetLabel(i)
	}
	return out
}

// spreadsheetLabel converts a 0-based index to spreadsheet column style:
// A..Z, then AA, AB, ... — so the paper-style anonymous labels stay
// unique past 26 orphans instead of wrapping around.
func spreadsheetLabel(i int) string {
	var buf [8]byte
	pos := len(buf)
	for i >= 0 {
		pos--
		buf[pos] = byte('A' + i%26)
		i = i/26 - 1
	}
	return string(buf[pos:])
}
