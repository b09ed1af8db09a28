package core

import (
	"reflect"
	"testing"

	"mood/internal/attack"
	"mood/internal/lppm"
	"mood/internal/mathx"
	"mood/internal/trace"
)

// countingMech counts the runs of the mechanism it wraps, and the runs
// on the original fragment of the search (frag). It forwards the
// wrapped mechanism's Deterministic declaration when forward is set.
type countingMech struct {
	inner        lppm.Mechanism
	forward      bool
	frag         []trace.Record
	runs, onFrag int
}

func (m *countingMech) Name() string        { return m.inner.Name() }
func (m *countingMech) Deterministic() bool { return m.forward && lppm.IsDeterministic(m.inner) }
func (m *countingMech) Obfuscate(rng *mathx.Rand, t trace.Trace) (trace.Trace, error) {
	m.runs++
	if len(t.Records) > 0 && len(t.Records) == len(m.frag) && &t.Records[0] == &m.frag[0] {
		m.onFrag++
	}
	return m.inner.Obfuscate(rng, t)
}

// TestHMCRunsOncePerFragment: on a fragment that reaches the
// composition tier, HMC runs on the fragment once, for the single tier,
// and the four HMC-first chains start from that output: 7 HMC runs in
// all instead of 11. A wrapper that does not forward the declaration
// gets the old 11, and the search's outcome does not change.
func TestHMCRunsOncePerFragment(t *testing.T) {
	s := newScenario(t, 53)
	victim := s.test.Traces[0]
	omni := &alwaysHitAttack{}
	if err := omni.Train([]trace.Trace{victim}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		forward      bool
		runs, onFrag int
	}{{true, 7, 1}, {false, 11, 5}} {
		hmc := &countingMech{inner: s.lppms[0], forward: tc.forward, frag: victim.Records}
		e := &Engine{LPPMs: []lppm.Mechanism{hmc, s.lppms[1], s.lppms[2]}, Attacks: attack.Set{omni}, Seed: 53}
		_, found, st := e.search().Search(e, victim, victim.User, "whole", 0)
		if found || st.Candidates != 15 {
			t.Fatalf("forward=%v: found %v after %d candidates, want a fragment that reaches every composition", tc.forward, found, st.Candidates)
		}
		if hmc.runs != tc.runs || hmc.onFrag != tc.onFrag {
			t.Errorf("forward=%v: HMC ran %d times, %d on the fragment; want %d and %d",
				tc.forward, hmc.runs, hmc.onFrag, tc.runs, tc.onFrag)
		}
	}
}

// TestHMCReuseKeepsOutput: under the real attacks, the engine publishes
// the same results, work counters included, whether or not HMC's output
// is reused, for brute force and greedy alike.
func TestHMCReuseKeepsOutput(t *testing.T) {
	s := newScenario(t, 31)
	for _, search := range []SearchStrategy{BruteForce{}, Greedy{}} {
		var results [2][]Result
		var runs [2]int
		for i, forward := range []bool{true, false} {
			hmc := &countingMech{inner: s.lppms[0], forward: forward}
			e := &Engine{LPPMs: []lppm.Mechanism{hmc, s.lppms[1], s.lppms[2]}, Attacks: s.atks, Seed: 31, Search: search}
			for _, tr := range s.test.Traces {
				res, err := e.Protect(tr)
				if err != nil {
					t.Fatal(err)
				}
				results[i] = append(results[i], res)
			}
			runs[i] = hmc.runs
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Fatalf("%s: reusing HMC's output changed the published results", search.Name())
		}
		if runs[0] >= runs[1] {
			t.Errorf("%s: HMC ran %d times with reuse, %d without", search.Name(), runs[0], runs[1])
		}
	}
}
