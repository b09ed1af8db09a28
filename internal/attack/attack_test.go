package attack

import (
	"sync"
	"testing"

	"mood/internal/lppm"
	"mood/internal/mathx"
	"mood/internal/synth"
	"mood/internal/trace"
)

// testSplit generates a small phone dataset and splits it into
// background (train) and anonymous (test) halves, as the paper does.
func testSplit(t *testing.T, seed uint64) (train, test trace.Dataset) {
	t.Helper()
	cfg := synth.PrivamovLike(synth.ScaleTiny, seed)
	cfg.NumUsers = 10
	cfg.Days = 8
	cfg.DriftFraction = 0 // stable users: attacks should shine
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d.SplitTrainTest(0.5, 20)
}

func allAttacks() Set {
	return Set{NewAP(), NewPOIAttack(), NewPIT()}
}

func TestAttacksReIdentifyStableUsers(t *testing.T) {
	train, test := testSplit(t, 11)
	for _, a := range allAttacks() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			if err := a.Train(train.Traces); err != nil {
				t.Fatal(err)
			}
			hits := 0
			verdicts := 0
			for _, tr := range test.Traces {
				v := a.Identify(tr)
				if v.OK {
					verdicts++
					if v.User == tr.User {
						hits++
					}
				}
			}
			if verdicts == 0 {
				t.Fatal("attack produced no verdicts at all")
			}
			// Stable synthetic users with distinctive homes: a real
			// attack implementation re-identifies most of them.
			if hits*2 < test.NumUsers() {
				t.Fatalf("%s re-identified only %d/%d stable users", a.Name(), hits, test.NumUsers())
			}
		})
	}
}

func TestAttacksFailBeforeTraining(t *testing.T) {
	_, test := testSplit(t, 12)
	for _, a := range allAttacks() {
		if v := a.Identify(test.Traces[0]); v.OK {
			t.Fatalf("%s produced a verdict before training", a.Name())
		}
	}
}

func TestAttacksOnEmptyTrace(t *testing.T) {
	train, _ := testSplit(t, 13)
	for _, a := range allAttacks() {
		if err := a.Train(train.Traces); err != nil {
			t.Fatal(err)
		}
		if v := a.Identify(trace.Trace{}); v.OK {
			t.Fatalf("%s identified an empty trace", a.Name())
		}
	}
}

func TestTrainOnEmptyBackgroundErrors(t *testing.T) {
	for _, a := range allAttacks() {
		if err := a.Train(nil); err == nil {
			t.Fatalf("%s accepted empty background", a.Name())
		}
	}
}

func TestAPSurvivesModerateNoiseButPOIDoesNot(t *testing.T) {
	// The paper's core observation about Geo-I at medium epsilon: the
	// 800 m heatmap cells absorb 200 m noise so AP keeps working, while
	// POI extraction (200 m clusters) is destroyed, silencing POI/PIT.
	train, test := testSplit(t, 14)
	ap := NewAP()
	pa := NewPOIAttack()
	if err := TrainAll(Set{ap, pa}, train.Traces); err != nil {
		t.Fatal(err)
	}
	geoi := lppm.NewGeoI()

	apHits, poiHitsNoisy, poiHitsRaw := 0, 0, 0
	for _, tr := range test.Traces {
		if v := pa.Identify(tr); v.OK && v.User == tr.User {
			poiHitsRaw++
		}
		obf, err := geoi.Obfuscate(mathx.DeriveRand(99, "test", tr.User), tr)
		if err != nil {
			t.Fatal(err)
		}
		if v := ap.Identify(obf); v.OK && v.User == tr.User {
			apHits++
		}
		if v := pa.Identify(obf); v.OK && v.User == tr.User {
			poiHitsNoisy++
		}
	}
	if apHits*2 < test.NumUsers() {
		t.Fatalf("AP under Geo-I hit only %d/%d users; cells should absorb the noise",
			apHits, test.NumUsers())
	}
	// The noise must degrade POI-based profiling: clusters shatter, only
	// sparse overnight pairs survive.
	if poiHitsNoisy >= poiHitsRaw && poiHitsRaw > 0 {
		t.Fatalf("POI attack unaffected by Geo-I: %d hits noisy vs %d raw", poiHitsNoisy, poiHitsRaw)
	}
}

func TestSetReIdentifies(t *testing.T) {
	train, test := testSplit(t, 15)
	set := allAttacks()
	if err := TrainAll(set, train.Traces); err != nil {
		t.Fatal(err)
	}
	anyHit := false
	for _, tr := range test.Traces {
		if hit, name := set.ReIdentifies(tr, tr.User); hit {
			anyHit = true
			if name == "" {
				t.Fatal("hit without attack name")
			}
		}
	}
	if !anyHit {
		t.Fatal("no user re-identified by any attack on raw data")
	}
	if names := set.Names(); len(names) != 3 || names[0] != "AP" {
		t.Fatalf("names = %v", names)
	}
}

func TestIdentifyConcurrentSafety(t *testing.T) {
	train, test := testSplit(t, 16)
	set := allAttacks()
	if err := TrainAll(set, train.Traces); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, tr := range test.Traces {
				for _, a := range set {
					_ = a.Identify(tr)
				}
			}
		}()
	}
	wg.Wait() // run with -race to catch unsynchronised state
}

func TestRetrainReplacesProfiles(t *testing.T) {
	train1, test1 := testSplit(t, 17)
	ap := NewAP()
	if err := ap.Train(train1.Traces); err != nil {
		t.Fatal(err)
	}
	before := ap.Identify(test1.Traces[0])

	// Retrain on a disjoint city: old profiles must be gone.
	cfg := synth.GeolifeLike(synth.ScaleTiny, 55)
	cfg.NumUsers = 6
	cfg.Days = 6
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train2, _ := d.SplitTrainTest(0.5, 10)
	if err := ap.Train(train2.Traces); err != nil {
		t.Fatal(err)
	}
	after := ap.Identify(test1.Traces[0])
	if after.OK && after.User == before.User {
		// The Geolife users live in Beijing; a Lyon trace must not map
		// to the same user label as before.
		t.Fatalf("retraining did not replace profiles: %v -> %v", before.User, after.User)
	}
}

func TestVerdictScoreOrdering(t *testing.T) {
	train, test := testSplit(t, 18)
	ap := NewAP()
	if err := ap.Train(train.Traces); err != nil {
		t.Fatal(err)
	}
	// The verdict score of the true user should be no worse than the
	// score the attack would assign to a totally foreign trace.
	own := ap.Identify(test.Traces[0])
	cfg := synth.GeolifeLike(synth.ScaleTiny, 77)
	cfg.NumUsers = 6
	cfg.Days = 6
	foreign := synth.MustGenerate(cfg)
	far := ap.Identify(foreign.Traces[0])
	if !own.OK || !far.OK {
		t.Fatal("expected verdicts for both traces")
	}
	if own.Score >= far.Score {
		t.Fatalf("own-city score %v should beat foreign-city score %v", own.Score, far.Score)
	}
}
