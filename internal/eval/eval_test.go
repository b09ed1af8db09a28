package eval

import (
	"testing"

	"mood/internal/metrics"
	"mood/internal/synth"
)

// tinyRun executes a cached tiny-scale evaluation over two datasets.
var tinyRunCache map[bool]Run

func tinyRun(t *testing.T, singleAttack bool) Run {
	t.Helper()
	if r, ok := tinyRunCache[singleAttack]; ok {
		return r
	}
	run, err := RunAll(Config{
		Scale:        synth.ScaleTiny,
		Seed:         5,
		Datasets:     []string{"mdc", "privamov"},
		SingleAttack: singleAttack,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tinyRunCache == nil {
		tinyRunCache = map[bool]Run{}
	}
	tinyRunCache[singleAttack] = run
	return run
}

func TestRunAllShape(t *testing.T) {
	run := tinyRun(t, false)
	if len(run.Datasets) != 2 {
		t.Fatalf("datasets = %d", len(run.Datasets))
	}
	for _, d := range run.Datasets {
		if d.Users == 0 || d.Records == 0 || d.TestRecords == 0 {
			t.Fatalf("%s: empty dataset stats %+v", d.Name, d)
		}
		if d.Location == "" {
			t.Fatalf("%s: missing location", d.Name)
		}
		if len(d.Strategies) != len(StrategyOrder) {
			t.Fatalf("%s: %d strategies", d.Name, len(d.Strategies))
		}
		for i, s := range d.Strategies {
			if s.Strategy != StrategyOrder[i] {
				t.Fatalf("%s: strategy %d is %s, want %s", d.Name, i, s.Strategy, StrategyOrder[i])
			}
			if len(s.Results) != d.Users {
				t.Fatalf("%s/%s: %d results for %d users", d.Name, s.Strategy, len(s.Results), d.Users)
			}
			if s.DataLoss < 0 || s.DataLoss > 1 {
				t.Fatalf("%s/%s: loss %v", d.Name, s.Strategy, s.DataLoss)
			}
		}
	}
}

func TestPaperOrderingsHold(t *testing.T) {
	run := tinyRun(t, false)
	for _, d := range run.Datasets {
		get := func(name string) StrategyEval {
			s, ok := d.Strategy(name)
			if !ok {
				t.Fatalf("%s: missing %s", d.Name, name)
			}
			return s
		}
		mood := get(StratMooD)
		hybrid := get(StratHybrid)
		none := get(StratNone)

		// MooD never leaves more users unprotected than Hybrid, and
		// never loses more data.
		if mood.NonProtected > hybrid.NonProtected {
			t.Errorf("%s: MooD %d > Hybrid %d non-protected", d.Name, mood.NonProtected, hybrid.NonProtected)
		}
		if mood.DataLoss > hybrid.DataLoss+1e-9 {
			t.Errorf("%s: MooD loss %v > Hybrid %v", d.Name, mood.DataLoss, hybrid.DataLoss)
		}
		// Protection can only improve over no protection.
		if mood.NonProtected > none.NonProtected {
			t.Errorf("%s: MooD worse than no LPPM", d.Name)
		}
		// The paper's headline: MooD protects 97.5-100%% of records.
		if mood.DataLoss > 0.05 {
			t.Errorf("%s: MooD loss %v, want near zero", d.Name, mood.DataLoss)
		}
	}
}

func TestSingleAttackIsEasier(t *testing.T) {
	multi := tinyRun(t, false)
	single := tinyRun(t, true)
	for i := range multi.Datasets {
		md := multi.Datasets[i]
		sd := single.Datasets[i]
		ms, _ := md.Strategy(StratHMC)
		ss, _ := sd.Strategy(StratHMC)
		// One attack can never re-identify more users than three.
		if ss.NonProtected > ms.NonProtected {
			t.Errorf("%s: single-attack HMC %d > multi-attack %d",
				md.Name, ss.NonProtected, ms.NonProtected)
		}
	}
}

func TestBandsCountProtectedUsersOnly(t *testing.T) {
	run := tinyRun(t, false)
	for _, d := range run.Datasets {
		for _, s := range d.Strategies {
			var inBands int
			for _, b := range metrics.Bands() {
				inBands += s.Bands[b]
			}
			protected := len(s.Results) - s.NonProtected
			if inBands != protected {
				t.Errorf("%s/%s: %d users in bands, %d protected", d.Name, s.Strategy, inBands, protected)
			}
		}
	}
}

func TestFineGrainedConsistent(t *testing.T) {
	run := tinyRun(t, false)
	for _, d := range run.Datasets {
		mood, _ := d.Strategy(StratMooD)
		var fromResults int
		for _, r := range mood.Results {
			if r.UsedFineGrained {
				fromResults++
			}
		}
		if len(d.FineGrained) != fromResults {
			t.Errorf("%s: FineGrained %d entries, results say %d", d.Name, len(d.FineGrained), fromResults)
		}
		for _, fg := range d.FineGrained {
			if fg.Protected > fg.SubTraces {
				t.Errorf("%s: %s protected %d of %d", d.Name, fg.User, fg.Protected, fg.SubTraces)
			}
			if fg.Label == "" {
				t.Errorf("%s: missing label", d.Name)
			}
			if r := fg.Ratio(); r < 0 || r > 1 {
				t.Errorf("ratio = %v", r)
			}
		}
	}
}

func TestRunDatasetLookup(t *testing.T) {
	run := tinyRun(t, false)
	d := run.Datasets[0]
	if _, ok := d.Strategy("nope"); ok {
		t.Fatal("unknown strategy should not resolve")
	}
}

func TestRunAllUnknownDataset(t *testing.T) {
	_, err := RunAll(Config{Scale: synth.ScaleTiny, Datasets: []string{"nope"}})
	if err == nil {
		t.Fatal("unknown dataset must error")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Scale != synth.ScaleBench {
		t.Fatalf("scale = %v", cfg.Scale)
	}
	if cfg.TrainFraction != 0.5 {
		t.Fatalf("train fraction = %v", cfg.TrainFraction)
	}
	if len(cfg.Datasets) != 4 {
		t.Fatalf("datasets = %v", cfg.Datasets)
	}
}

func TestProtectedRatio(t *testing.T) {
	if got := (StrategyEval{}).ProtectedRatio(); got != 0 {
		t.Fatalf("empty ratio = %v", got)
	}
	run := tinyRun(t, false)
	for _, d := range run.Datasets {
		for _, s := range d.Strategies {
			r := s.ProtectedRatio()
			if r < 0 || r > 1 {
				t.Fatalf("ratio %v", r)
			}
		}
	}
}

func TestAttackHitsPopulated(t *testing.T) {
	run := tinyRun(t, false)
	for _, d := range run.Datasets {
		if len(d.AttackHits) == 0 {
			t.Fatalf("%s: no attack hits recorded", d.Name)
		}
		none, _ := d.Strategy(StratNone)
		for name, hits := range d.AttackHits {
			if hits < 0 || hits > d.Users {
				t.Fatalf("%s: attack %s hits %d of %d users", d.Name, name, hits, d.Users)
			}
		}
		// The union of per-attack hits is at least the per-strategy
		// non-protected count divided among attacks (sanity bound).
		var maxHits int
		for _, hits := range d.AttackHits {
			if hits > maxHits {
				maxHits = hits
			}
		}
		if maxHits > none.NonProtected {
			t.Fatalf("%s: strongest attack hits %d but no-LPPM non-protected is %d",
				d.Name, maxHits, none.NonProtected)
		}
	}
}
