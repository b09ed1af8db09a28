package core

import (
	"math"
	"reflect"
	"testing"

	"mood/internal/attack"
	"mood/internal/geo"
	"mood/internal/lppm"
	"mood/internal/mathx"
	"mood/internal/metrics"
	"mood/internal/trace"
)

// oracleEvaluate is the engine's per-candidate check as the exhaustive
// search ran it: obfuscate, judge, and measure the utility of a
// protector only. judged reports that the obfuscation was non-empty.
func oracleEvaluate(e *Engine, mech lppm.Mechanism, t trace.Trace, user, path string, depth int) (p Piece, ok, judged bool) {
	obf, err := mech.Obfuscate(mathx.DeriveRand(e.Seed, "mood", user, path, mech.Name()), t)
	if err != nil || obf.Empty() {
		return Piece{}, false, false
	}
	if hit, _ := e.Attacks.ReIdentifies(obf.WithUser(""), user); hit {
		return Piece{}, false, true
	}
	return Piece{
		Trace:         obf,
		Mechanism:     mech.Name(),
		Distortion:    e.utility().Measure(t, obf),
		SourceRecords: t.Len(),
		Composed:      chainLen(mech) > 1,
		Depth:         depth,
	}, true, true
}

// oracleBruteForce is the paper's search as an exhaustive loop: every
// candidate of a tier is judged, and the protector kept is replaced only
// by a strictly Better one. BruteForce must publish exactly what it
// publishes. Its Stats are the exhaustive loop's: every candidate
// obfuscated, every non-empty obfuscation judged.
type oracleBruteForce struct{}

func (oracleBruteForce) Name() string { return "oracle-brute" }

func (oracleBruteForce) Search(e *Engine, t trace.Trace, user, path string, depth int) (Piece, bool, Stats) {
	var stats Stats
	for _, tier := range [][]lppm.Mechanism{e.LPPMs, mechanisms(lppm.CompositionsOnly(e.LPPMs))} {
		var best Piece
		found := false
		for _, m := range tier {
			p, ok, judged := oracleEvaluate(e, m, t, user, path, depth)
			stats.Candidates++
			if judged {
				stats.Judged++
				stats.AttackCalls += len(e.Attacks)
			}
			if ok && (!found || e.utility().Better(p.Distortion, best.Distortion)) {
				best, found = p, true
			}
		}
		if found {
			return best, true, stats
		}
	}
	return Piece{}, false, stats
}

// oracleHybrid is Hybrid.Protect as an exhaustive loop.
func oracleHybrid(h Hybrid, t trace.Trace) Result {
	util := h.Utility
	if util == nil {
		util = metrics.STDUtility{}
	}
	res := Result{User: t.User, TotalRecords: t.Len()}
	var best Piece
	found := false
	for _, m := range h.LPPMs {
		obf, err := m.Obfuscate(mathx.DeriveRand(h.Seed, "hybrid", t.User, m.Name()), t)
		if err != nil || obf.Empty() {
			continue
		}
		if hit, _ := h.Attacks.ReIdentifies(obf.WithUser(""), t.User); hit {
			continue
		}
		p := Piece{Trace: obf, Mechanism: m.Name(), Distortion: util.Measure(t, obf), SourceRecords: t.Len()}
		if !found || util.Better(p.Distortion, best.Distortion) {
			best, found = p, true
		}
	}
	if found {
		res.Pieces = []Piece{best}
	} else {
		res.LostRecords = t.Len()
	}
	return res
}

// sameOutcome fails t unless got equals want in every field but the
// work counters, distortions compared bit for bit.
func sameOutcome(t *testing.T, what string, got, want Result) {
	t.Helper()
	if len(got.Pieces) == len(want.Pieces) {
		for i := range got.Pieces {
			if g, w := math.Float64bits(got.Pieces[i].Distortion), math.Float64bits(want.Pieces[i].Distortion); g != w {
				t.Fatalf("%s: piece %d distortion bits %x, oracle %x", what, i, g, w)
			}
		}
	}
	got.Stats, want.Stats = Stats{}, Stats{}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result differs from the exhaustive oracle:\n got %+v\nwant %+v", what, got, want)
	}
}

// TestSearchMatchesExhaustiveOracles: judging candidates in utility
// order and stopping at the first protector publishes exactly what the
// exhaustive loops publish, for the engine and for the Hybrid baseline.
// It obfuscates the same candidates and judges no more of them.
func TestSearchMatchesExhaustiveOracles(t *testing.T) {
	for _, seed := range []uint64{21, 26, 31, 32, 33, 34, 35, 36, 37} {
		s := newScenario(t, seed)
		oracle := *s.engine
		oracle.Search = oracleBruteForce{}
		h := Hybrid{LPPMs: s.lppms, Attacks: s.atks, Seed: seed}
		for _, tr := range s.test.Traces {
			got, err := s.engine.Protect(tr)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Protect(tr)
			if err != nil {
				t.Fatal(err)
			}
			sameOutcome(t, "brute, user "+tr.User, got, want)

			// Same obfuscations, no more verdicts (core.candidates_per_chunk
			// cannot move).
			gs, ws := got.Stats, want.Stats
			if gs.Candidates != ws.Candidates || gs.SplitCount != ws.SplitCount ||
				gs.Judged > ws.Judged || gs.AttackCalls != gs.Judged*len(s.atks) {
				t.Fatalf("user %s: stats %+v, exhaustive %+v", tr.User, gs, ws)
			}

			hg, err := h.Protect(tr)
			if err != nil {
				t.Fatal(err)
			}
			sameOutcome(t, "hybrid, user "+tr.User, hg, oracleHybrid(h, tr))
		}
	}
}

// stampMech publishes one fixed record at time ts: its output says which
// candidate it was.
type stampMech struct {
	name string
	ts   int64
}

func (m stampMech) Name() string { return m.name }
func (m stampMech) Obfuscate(_ *mathx.Rand, t trace.Trace) (trace.Trace, error) {
	return trace.Trace{User: t.User, Records: []trace.Record{trace.At(t.Records[0].Point(), m.ts)}}, nil
}

// stampUtility scores a candidate by its stamp; lower is better.
type stampUtility map[int64]float64

func (stampUtility) Name() string                         { return "stamp" }
func (u stampUtility) Measure(_, obf trace.Trace) float64 { return u[obf.Records[0].TS] }
func (stampUtility) Better(a, b float64) bool             { return a < b }

// stampAttack re-identifies the candidates whose stamp it holds.
type stampAttack map[int64]bool

func (stampAttack) Name() string              { return "stamp" }
func (stampAttack) Train([]trace.Trace) error { return nil }
func (a stampAttack) Identify(t trace.Trace) attack.Verdict {
	if a[t.Records[0].TS] {
		return attack.Verdict{User: "u", OK: true}
	}
	return attack.Verdict{}
}

// TestSelectionOrderConstructed pins the two rules utility order must
// keep: on a bit-equal utility tie between protectors the earlier
// candidate wins, and when the best-utility candidate is re-identified
// the runner-up wins, for the engine and for Hybrid alike.
func TestSelectionOrderConstructed(t *testing.T) {
	here := geo.Point{Lat: 45.76, Lon: 4.84}
	tr := trace.New("u", []trace.Record{trace.At(here, 0), trace.At(here, 60)})
	mechs := []lppm.Mechanism{stampMech{"m1", 1}, stampMech{"m2", 2}, stampMech{"m3", 3}}
	for _, tc := range []struct {
		name      string
		distort   []float64
		hits      stampAttack
		want      string
		wantJudge int
	}{
		{"bit-equal tie keeps enumeration order", []float64{5, 5, 7}, stampAttack{}, "m1", 1},
		{"tie after a rejected best", []float64{4, 4, 1}, stampAttack{3: true}, "m1", 2},
		{"re-identified best yields the runner-up", []float64{3, 5, 4}, stampAttack{1: true}, "m3", 2},
		// 3 singles, then 12 strict compositions, each publishing its
		// last member's stamp.
		{"nothing protects", []float64{3, 5, 4}, stampAttack{1: true, 2: true, 3: true}, "", 15},
	} {
		util := stampUtility{}
		for i, d := range tc.distort {
			util[int64(i+1)] = d
		}
		atks := attack.Set{tc.hits}
		e := &Engine{LPPMs: mechs, Attacks: atks, Utility: util}
		oracle := *e
		oracle.Search = oracleBruteForce{}
		got, _, st := e.search().Search(e, tr, "u", "whole", 0)
		want, _, _ := oracle.search().Search(&oracle, tr, "u", "whole", 0)
		if got.Mechanism != tc.want || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: engine picked %q, want %q (oracle %q)", tc.name, got.Mechanism, tc.want, want.Mechanism)
		}
		if st.Judged != tc.wantJudge {
			t.Fatalf("%s: judged %d candidates, want %d", tc.name, st.Judged, tc.wantJudge)
		}

		h := Hybrid{LPPMs: mechs, Attacks: atks, Utility: util}
		hr, err := h.Protect(tr)
		if err != nil {
			t.Fatal(err)
		}
		sameOutcome(t, tc.name+" (hybrid)", hr, oracleHybrid(h, tr))
	}
}
