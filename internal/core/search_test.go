package core

import (
	"reflect"
	"testing"

	"mood/internal/lppm"
	"mood/internal/trace"
)

func TestGreedyProtectsSameUsersAsBrute(t *testing.T) {
	s := newScenario(t, 31)
	brute := *s.engine
	brute.Search = BruteForce{}
	greedy := *s.engine
	greedy.Search = Greedy{}

	var bruteCands, greedyCands int
	for _, tr := range s.test.Traces {
		br, err := brute.Protect(tr)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := greedy.Protect(tr)
		if err != nil {
			t.Fatal(err)
		}
		// The heuristic must not protect fewer records overall: every
		// fragment brute force can protect has at least one protecting
		// candidate, which greedy's full scan will also reach.
		if gr.LostRecords > br.LostRecords {
			t.Fatalf("user %s: greedy lost %d records, brute %d",
				tr.User, gr.LostRecords, br.LostRecords)
		}
		// Both run the same single-LPPM tier, so wherever a single LPPM
		// protects a fragment they publish the same piece.
		if len(gr.Pieces) != len(br.Pieces) {
			t.Fatalf("user %s: greedy published %d pieces, brute %d", tr.User, len(gr.Pieces), len(br.Pieces))
		}
		for i, p := range br.Pieces {
			if !p.Composed && !reflect.DeepEqual(gr.Pieces[i], p) {
				t.Fatalf("user %s piece %d: greedy published %q, brute the single %q",
					tr.User, i, gr.Pieces[i].Mechanism, p.Mechanism)
			}
		}
		bruteCands += br.Stats.Candidates
		greedyCands += gr.Stats.Candidates
	}
	// Greedy stops at the first protecting composition; brute force
	// obfuscates every one.
	if greedyCands > bruteCands {
		t.Fatalf("greedy obfuscated more candidates than brute: %d vs %d", greedyCands, bruteCands)
	}
}

func TestGreedyStopsAtFirstProtectingComposition(t *testing.T) {
	s := newScenario(t, 32)
	greedy := *s.engine
	greedy.Search = Greedy{}
	// Find a user needing compositions under brute force.
	for _, tr := range s.test.Traces {
		br, err := s.engine.Protect(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !br.UsedComposition || br.UsedFineGrained {
			continue
		}
		gr, err := greedy.Protect(tr)
		if err != nil {
			t.Fatal(err)
		}
		if gr.Stats.Candidates > br.Stats.Candidates {
			t.Fatalf("greedy evaluated more candidates (%d) than brute (%d)",
				gr.Stats.Candidates, br.Stats.Candidates)
		}
		return
	}
	t.Skip("no composition-needing user in this scenario seed")
}

func TestSearchNames(t *testing.T) {
	if (BruteForce{}).Name() != "brute" || (Greedy{}).Name() != "greedy" {
		t.Fatal("strategy names changed")
	}
}

func TestSinglesPreferredOverCompositions(t *testing.T) {
	// Algorithm 1 returns a protecting single even when compositions
	// exist; verify with a mechanism set where a single always protects.
	s := newScenario(t, 33)
	// HMC alone protects most users in this tiny scenario; every result
	// that is fully protected without fine-grained and without
	// composition must be a single mechanism (no "→" in the name).
	for _, tr := range s.test.Traces {
		res, err := s.engine.Protect(tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Pieces) == 1 && !res.UsedComposition {
			if ch := res.Pieces[0].Mechanism; len(ch) == 0 || containsArrow(ch) {
				t.Fatalf("single-LPPM result has composed mechanism %q", ch)
			}
		}
	}
}

func containsArrow(s string) bool {
	for _, r := range s {
		if r == '→' {
			return true
		}
	}
	return false
}

func TestHybridProtectSelectsBestUtility(t *testing.T) {
	s := newScenario(t, 34)
	h := Hybrid{LPPMs: s.lppms, Attacks: s.atks, Seed: 34}
	for _, tr := range s.test.Traces {
		res, err := h.Protect(tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Pieces) > 1 {
			t.Fatal("hybrid must publish at most one piece")
		}
		if len(res.Pieces) == 1 {
			p := res.Pieces[0]
			if containsArrow(p.Mechanism) {
				t.Fatalf("hybrid composed mechanisms: %q", p.Mechanism)
			}
			if hit, _ := s.atks.ReIdentifies(p.Trace.WithUser(""), tr.User); hit {
				t.Fatal("hybrid published a vulnerable trace")
			}
		} else if res.LostRecords != tr.Len() {
			t.Fatal("unprotected hybrid user must lose all records")
		}
	}
}

func TestSingleLPPMBaseline(t *testing.T) {
	s := newScenario(t, 35)
	for _, mech := range append([]lppm.Mechanism{lppm.Identity{}}, s.lppms...) {
		base := SingleLPPM{LPPM: mech, Attacks: s.atks, Seed: 35}
		results, err := base.ProtectDataset(s.test)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != s.test.NumUsers() {
			t.Fatalf("%s: %d results", mech.Name(), len(results))
		}
		for _, r := range results {
			if len(r.Pieces) == 1 {
				if r.Pieces[0].Mechanism != mech.Name() {
					t.Fatalf("piece mechanism %q, want %q", r.Pieces[0].Mechanism, mech.Name())
				}
			} else if r.LostRecords != r.TotalRecords {
				t.Fatal("unprotected single-LPPM user must lose everything")
			}
		}
	}
}

func TestSingleLPPMIdentityMeasuresRawVulnerability(t *testing.T) {
	// With Identity, a user is protected iff no attack re-identifies
	// the raw trace — the paper's "naturally insensitive" users.
	s := newScenario(t, 36)
	base := SingleLPPM{LPPM: lppm.Identity{}, Attacks: s.atks, Seed: 36}
	for _, tr := range s.test.Traces {
		res, err := base.Protect(tr)
		if err != nil {
			t.Fatal(err)
		}
		hit, _ := s.atks.ReIdentifies(tr, tr.User)
		if hit == res.FullyProtected() {
			t.Fatalf("user %s: raw hit=%v but FullyProtected=%v", tr.User, hit, res.FullyProtected())
		}
	}
}

func TestHybridErrors(t *testing.T) {
	if _, err := (Hybrid{}).Protect(trace.Trace{User: "u"}); err == nil {
		t.Fatal("no LPPMs must error")
	}
	if _, err := (SingleLPPM{}).Protect(trace.Trace{User: "u"}); err == nil {
		t.Fatal("no mechanism must error")
	}
	s := newScenario(t, 37)
	h := Hybrid{LPPMs: s.lppms, Attacks: s.atks}
	if _, err := h.Protect(trace.Trace{User: "u"}); err == nil {
		t.Fatal("empty trace must error")
	}
}
