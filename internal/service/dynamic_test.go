package service

import (
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"

	"mood"
	"mood/internal/attack"
	"mood/internal/eval"
	"mood/internal/store"
	"mood/internal/synth"
	"mood/internal/trace"
)

// retrainerOf is the retrainer cmd/moodserver wires: the next
// engine is p.RetrainWith(history), which audits as well as protects.
func retrainerOf(p *mood.Pipeline) Retrainer {
	return RetrainerFunc(func(history []trace.Trace) (Protector, Auditor, error) {
		next, err := p.RetrainWith(history)
		if err != nil {
			return nil, nil, err
		}
		return next, next, nil
	})
}

// TestServerDynamicProtectionMirrorsRunDynamic is the online counterpart
// of eval.RunDynamic's static-vs-dynamic comparison: the same drifted
// scenario is replayed through the HTTP middleware, uploads arriving in
// publication rounds. The static server keeps its startup engine; the
// dynamic server retrains (initial background + accumulated raw upload
// history) between rounds, which both verifies new admissions against
// up-to-date attacks and quarantines previously published fragments the
// oracle now re-identifies. Leaks are counted per round against the
// oracle attacker of that round, exactly as in the offline experiment.
func TestServerDynamicProtectionMirrorsRunDynamic(t *testing.T) {
	if testing.Short() {
		t.Skip("real-engine dynamic scenario")
	}
	cfg := eval.DynamicConfig{Seed: 5, Rounds: 3}
	initialBG, rounds, err := eval.DynamicScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) < 2 {
		t.Fatalf("scenario produced %d rounds", len(rounds))
	}

	run := func(dynamic bool) (leaks int, stats ServerStats) {
		pipeline, err := mood.NewPipeline(initialBG.Traces, mood.WithSeed(cfg.Seed))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(pipeline, WithRetrainer(retrainerOf(pipeline), 0))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		attackerBG := initialBG.Traces
		for i, round := range rounds {
			slice := round.Data
			if dynamic && i > 0 {
				// The dynamic server refreshes its engine on everything
				// uploaded so far before admitting the next round —
				// RunDynamic's per-round retrain, done online.
				if _, err := srv.Retrain(); err != nil {
					t.Fatal(err)
				}
			}

			// Oracle attacker for this round: trained on the raw history
			// an adversary holds before the round is published.
			oracle := attack.DefaultSet()
			if err := attack.TrainAll(oracle, attackerBG); err != nil {
				t.Fatal(err)
			}

			prevSeq := srv.fragSeq.Load()
			for _, tr := range slice.Traces {
				if _, err := srv.protectAndCommit(tr); err != nil {
					t.Fatal(err)
				}
			}

			// Count this round's fresh fragments the oracle re-identifies.
			for j := range srv.shards {
				sh := &srv.shards[j]
				sh.mu.Lock()
				for _, f := range sh.published {
					if f.Seq <= prevSeq {
						continue
					}
					if hit, _ := oracle.ReIdentifies(f.Trace.WithUser(""), f.Owner); hit {
						leaks++
					}
				}
				sh.mu.Unlock()
			}

			attackerBG = trace.NewDataset("bg", slices.Concat(attackerBG, slice.Traces)).Traces
		}
		return leaks, srv.Stats()
	}

	staticLeaks, staticStats := run(false)
	dynamicLeaks, dynamicStats := run(true)
	t.Logf("static: %d leaks (%+v)", staticLeaks, staticStats)
	t.Logf("dynamic: %d leaks (%+v)", dynamicLeaks, dynamicStats)

	// The point of §6: a stale verifier admits fragments an up-to-date
	// attacker re-identifies; a retrained one does not.
	if dynamicLeaks > staticLeaks {
		t.Fatalf("dynamic server leaked more (%d) than static (%d)", dynamicLeaks, staticLeaks)
	}
	if staticLeaks > 0 && dynamicLeaks >= staticLeaks {
		t.Fatalf("dynamic server did not reduce leaks: %d vs static %d", dynamicLeaks, staticLeaks)
	}
	if staticStats.Retrains != 0 {
		t.Fatalf("static server retrained: %+v", staticStats)
	}
	if dynamicStats.Retrains != len(rounds)-1 {
		t.Fatalf("dynamic server ran %d retrains, want %d", dynamicStats.Retrains, len(rounds)-1)
	}
	// Fragments admitted under the initial attacks and later made
	// re-identifiable by the drift must have been pulled by the re-audit
	// (this scenario is seeded; with seed 5 the drift defeats several
	// round-1 admissions).
	if dynamicStats.QuarantinedTraces == 0 {
		t.Fatalf("dynamic server never quarantined: %+v", dynamicStats)
	}
	if dynamicStats.RecordsQuarantined < dynamicStats.QuarantinedTraces {
		t.Fatalf("quarantine accounting inconsistent: %+v", dynamicStats)
	}
}

// TestRecoveryRestoresRetrainedAdversary: a node that retrained before
// a restart must judge new uploads against the retrained attacks, not
// the ones it booted with. On the drift scenario, a real pipeline
// publishes round 1 and retrains (pulling fragments the drift exposed),
// then the node restarts — from the log alone, from a checkpoint alone,
// or from a checkpoint plus the log after it — and publishes round 2.
// Its published bytes, its stats (quarantines and the retrain count
// included) must equal those of a node that never restarted.
func TestRecoveryRestoresRetrainedAdversary(t *testing.T) {
	if testing.Short() {
		t.Skip("real-engine dynamic scenario")
	}
	cfg := eval.DynamicConfig{Seed: 5, Rounds: 3}
	initialBG, rounds, err := eval.DynamicScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pipeline, err := mood.NewPipeline(initialBG.Traces, mood.WithSeed(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithRetrainer(retrainerOf(pipeline), 0)}
	publish := func(srv *Server, d trace.Dataset) {
		t.Helper()
		for _, tr := range d.Traces {
			if _, err := srv.protectAndCommit(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	// firstRound publishes round 1 and retrains, checkpointing between
	// the two when asked.
	firstRound := func(srv *Server, checkpoint bool) {
		t.Helper()
		publish(srv, rounds[0].Data)
		if checkpoint {
			if err := srv.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := srv.Retrain()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Quarantined == 0 {
			t.Fatalf("the drift exposed nothing: %+v", rep)
		}
	}
	type outcome struct {
		Stats   ServerStats
		Dataset string
	}
	observe := func(srv *Server, hs *httptest.Server) outcome {
		return outcome{srv.Stats(), getBody(t, hs.URL+"/v2/dataset?limit=1000")}
	}

	ref, hsRef := newWALServer(t, store.NewMemFS(), pipeline, opts...)
	firstRound(ref, false)
	publish(ref, rounds[1].Data)
	want := observe(ref, hsRef)

	for _, rc := range []struct {
		name       string
		checkpoint bool // checkpoint between round 1 and the retrain
		crash      bool // kill the disk; otherwise Close (final checkpoint)
	}{
		{"log only", false, true},
		{"checkpoint only", false, false},
		{"checkpoint plus log suffix", true, true},
	} {
		t.Run(rc.name, func(t *testing.T) {
			disk := store.NewMemFS()
			ffs := store.NewFaultFS(disk)
			srvA, _ := newWALServer(t, ffs, pipeline, opts...)
			firstRound(srvA, rc.checkpoint)
			if rc.crash {
				ffs.Kill()
			} else if err := srvA.Close(); err != nil {
				t.Fatal(err)
			}
			srvB, hsB := newWALServer(t, disk, pipeline, opts...)
			publish(srvB, rounds[1].Data)
			got := observe(srvB, hsB)
			if got.Stats != want.Stats {
				t.Fatalf("restarted node's stats %+v, want %+v", got.Stats, want.Stats)
			}
			if got.Dataset != want.Dataset {
				t.Fatal("the restarted node published other bytes than a node that never restarted")
			}
		})
	}
}

// TestRetrainPassAllocBudget pins what one retrain + re-audit pass
// allocates through the real pipeline: H₀ ∪ history merged, the attack
// set and HMC background rebuilt on it, every published fragment
// re-audited. The pass reads the history in place instead of copying
// it, keeps each open POI cluster as a count, timestamps and centroid,
// and counts MMC transitions as it scans, so what remains is mostly
// what the retrained engine keeps. The budget is the measured cost,
// 958,728 bytes for the cheapest of eight passes on amd64 (allocPerOp),
// with headroom; before those changes the same pass cost 1,930,000.
func TestRetrainPassAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the pass's")
	}
	const (
		rounds = 8
		budget = 1 << 20 // bytes per pass
	)
	// Training fans out on GOMAXPROCS workers, each with buffers of its
	// own: two keep the count the same on every machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sc := synth.MDCLike(synth.ScaleTiny, 11)
	sc.NumUsers = 30
	full, err := synth.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	bg, test := full.SplitTrainTest(0.5, 20)
	pipeline, err := mood.NewPipeline(bg.Traces, mood.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(pipeline, WithRetrainer(retrainerOf(pipeline), 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL)
	for _, tr := range test.Traces {
		mustUpload(t, c, tr)
	}
	// The first pass quarantines what the retrained attacks re-identify;
	// the measured passes then re-audit the same surviving fragments.
	if _, err := srv.Retrain(); err != nil {
		t.Fatal(err)
	}
	var report RetrainReport
	perPass := allocPerOp(t, "retrain pass", rounds, 1, nil, func(int) {
		if report, err = srv.Retrain(); err != nil {
			t.Fatal(err)
		}
	})
	if report.HistoryRecords == 0 || report.Audited == 0 {
		t.Fatalf("the pass trained on %d history records and audited %d fragments", report.HistoryRecords, report.Audited)
	}
	t.Logf("a pass over %d users, %d history records and %d fragments audited",
		report.HistoryUsers, report.HistoryRecords, report.Audited)
	if perPass > budget {
		t.Fatalf("a retrain pass allocated %.0f bytes, over its budget of %d", perPass, budget)
	}
}
