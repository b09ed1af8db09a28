package attack

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"mood/internal/heatmap"
	"mood/internal/trace"
)

// The unpruned reference scans, kept as oracles: every kernel path —
// the AP batch scan with its float32 prune and profile blocks, the
// owner-seeded hit scans, the shared POI extraction — must agree with
// these bit for bit.

// oracleIdentifyAP is the plain AP argmin: one freeze, then the
// oracle scan.
func oracleIdentifyAP(a *AP, t trace.Trace) Verdict {
	if a.grid == nil || t.Empty() {
		return Verdict{}
	}
	return oracleScanAP(a, heatmap.FrozenFromTrace(a.grid, t))
}

// oracleScanAP walks every profile in training order through the exact
// kernel with only the topTwo early exit; it allocates nothing.
func oracleScanAP(a *AP, anon *heatmap.Frozen) Verdict {
	k := newTopTwo()
	for pi := range a.profiles {
		p := &a.profiles[pi]
		bound := k.bound()
		if d := anon.TopsoeBounded(p.frozen, bound); d < bound {
			k.consider(p.user, d)
		}
	}
	return k.verdict()
}

// oracleIdentify is the argmin of one attack: the AP oracle above, and
// for the POI- and PIT-attacks their Identify, which is already a
// plain argmin scan.
func oracleIdentify(a Attack, t trace.Trace) Verdict {
	if ap, ok := a.(*AP); ok {
		return oracleIdentifyAP(ap, t)
	}
	return a.Identify(t)
}

// oracleReIdentifies is the protection predicate as a loop of full
// argmins: the first attack in set order whose verdict names the user.
func oracleReIdentifies(s Set, t trace.Trace, user string) (bool, string) {
	for _, a := range s {
		if v := oracleIdentify(a, t); v.OK && v.User == user {
			return true, a.Name()
		}
	}
	return false, ""
}

// verdictsEq demands bit-identical verdicts: float fields are compared
// by their IEEE bit patterns, so a batch kernel that drifts by even one
// ulp from the scalar path fails loudly.
func verdictsEq(a, b Verdict) bool {
	return a.User == b.User &&
		math.Float64bits(a.Score) == math.Float64bits(b.Score) &&
		math.Float64bits(a.Margin) == math.Float64bits(b.Margin) &&
		a.OK == b.OK
}

// batchCandidates assembles the anonymous workload for the equivalence
// tests: every test trace stripped of its user label, plus the edge
// cases the scalar path handles specially — an empty trace and a trace
// with support disjoint from every profile.
func batchCandidates(test trace.Dataset) []trace.Trace {
	ts := make([]trace.Trace, 0, len(test.Traces)+2)
	for _, tr := range test.Traces {
		ts = append(ts, tr.WithUser(""))
	}
	ts = append(ts, trace.Trace{})
	far := make([]trace.Record, 0, 24)
	for h := 0; h < 24; h++ {
		far = append(far, trace.Record{Lat: -33.9, Lon: 151.2, TS: int64(h) * 3600})
	}
	ts = append(ts, trace.New("", far))
	return ts
}

// TestBatchMatchesScalarBitIdentical is the batch layer's core
// contract: for every attack, BatchIdentify over a mixed workload —
// realistic anonymous traces, an empty trace, a disjoint-support trace
// — returns verdicts bit-identical to the unpruned argmin oracle, and
// so does trace-at-a-time Identify. The float32 prune therefore only
// ever skips work, never changes an answer.
func TestBatchMatchesScalarBitIdentical(t *testing.T) {
	for _, seed := range []uint64{11, 29, 47} {
		train, test := testSplit(t, seed)
		atks := allAttacks()
		for _, a := range atks {
			if err := a.Train(train.Traces); err != nil {
				t.Fatal(err)
			}
		}
		ts := batchCandidates(test)

		for ai, got := range BatchIdentify(atks, ts) {
			a := atks[ai]
			if len(got) != len(ts) {
				t.Fatalf("%s: BatchIdentify returned %d verdicts for %d traces", a.Name(), len(got), len(ts))
			}
			for i, tr := range ts {
				want := oracleIdentify(a, tr)
				if !verdictsEq(got[i], want) {
					t.Fatalf("seed %d, %s, trace %d: batch verdict %+v != oracle %+v",
						seed, a.Name(), i, got[i], want)
				}
				if one := a.Identify(tr); !verdictsEq(one, want) {
					t.Fatalf("seed %d, %s, trace %d: Identify %+v != oracle %+v",
						seed, a.Name(), i, one, want)
				}
			}
		}
	}
}

// TestAPScoreIsTopsoe pins AP's score to the paper's divergence: the
// winner's Score is exactly the Topsoe divergence between the trace's
// heatmap and the winning profile's, bit for bit.
func TestAPScoreIsTopsoe(t *testing.T) {
	train, test := testSplit(t, 19)
	ap := NewAP()
	if err := ap.Train(train.Traces); err != nil {
		t.Fatal(err)
	}
	for _, tr := range test.Traces {
		v := ap.Identify(tr.WithUser(""))
		if !v.OK {
			t.Fatalf("no verdict for %q", tr.User)
		}
		anon := heatmap.FrozenFromTrace(ap.Grid(), tr)
		want := math.Inf(1)
		for _, p := range ap.profiles {
			if p.user == v.User {
				want = math.Min(want, anon.Topsoe(p.frozen))
			}
		}
		if math.Float64bits(v.Score) != math.Float64bits(want) {
			t.Fatalf("%q: Score %v != Topsoe %v", tr.User, v.Score, want)
		}
	}
}

// dwellTrace builds a trace that dwells three hours at each point in
// turn (one record every ten minutes), long and stationary enough for
// the default POI extractor (200 m, 1 h) to see every point as a POI
// and for the PIT chain to observe the transitions between them.
func dwellTrace(user string, pts [][2]float64) trace.Trace {
	var recs []trace.Record
	ts := int64(0)
	for _, p := range pts {
		for i := 0; i < 18; i++ {
			recs = append(recs, trace.Record{Lat: p[0], Lon: p[1], TS: ts})
			ts += 600
		}
	}
	return trace.New(user, recs)
}

// TestTieBreaksTowardLowestUserID pins the determinism bugfix: two
// users with byte-for-byte identical training data score identically
// against an anonymous copy of that data, and both the argmin oracle
// and the batch path must resolve the tie to the lexicographically
// smallest user ID with a Margin of exactly zero — regardless of
// profile insertion order ("ub" is trained before "ua" on purpose). A
// third, far-away user gives the batch prune a profile to reject.
func TestTieBreaksTowardLowestUserID(t *testing.T) {
	home := [][2]float64{{45.00, 5.00}, {45.02, 5.00}, {45.00, 5.00}, {45.02, 5.00}}
	background := []trace.Trace{
		dwellTrace("ub", home),
		dwellTrace("ua", home),
		dwellTrace("uc", [][2]float64{{46.5, 6.5}, {46.52, 6.5}, {46.5, 6.5}, {46.52, 6.5}}),
	}
	anon := dwellTrace("", home)

	for _, a := range allAttacks() {
		if err := a.Train(background); err != nil {
			t.Fatal(err)
		}
		scalar := oracleIdentify(a, anon)
		if !scalar.OK {
			t.Fatalf("%s produced no verdict on its own training data", a.Name())
		}
		if scalar.User != "ua" {
			t.Fatalf("%s broke the tie toward %q, want lowest user ID \"ua\"", a.Name(), scalar.User)
		}
		if scalar.Margin != 0 {
			t.Fatalf("%s reported Margin %g on an exact tie, want 0", a.Name(), scalar.Margin)
		}
		batch := BatchIdentify(Set{a}, []trace.Trace{anon})[0]
		if !verdictsEq(batch[0], scalar) {
			t.Fatalf("%s: batch tie verdict %+v != oracle %+v", a.Name(), batch[0], scalar)
		}
		if hit, _ := (Set{a}).ReIdentifies(anon, "ua"); !hit {
			t.Fatalf("%s: predicate misses the tie winner", a.Name())
		}
		if hit, _ := (Set{a}).ReIdentifies(anon, "ub"); hit {
			t.Fatalf("%s: predicate credits the tie loser", a.Name())
		}
	}
}

// TestMarginSeparatesRunnerUp sanity-checks the new Verdict field on a
// non-tied workload: a verdict's Margin is non-negative, and +Inf only
// when there is a single candidate profile.
func TestMarginSeparatesRunnerUp(t *testing.T) {
	train, test := testSplit(t, 31)
	atks := allAttacks()
	for _, a := range atks {
		if err := a.Train(train.Traces); err != nil {
			t.Fatal(err)
		}
	}
	sawFinite := false
	for _, a := range atks {
		for _, tr := range test.Traces {
			v := a.Identify(tr.WithUser(""))
			if !v.OK {
				continue
			}
			if v.Margin < 0 || math.IsNaN(v.Margin) {
				t.Fatalf("%s: Margin %g out of range on %q", a.Name(), v.Margin, tr.User)
			}
			if !math.IsInf(v.Margin, 1) {
				sawFinite = true
			}
		}
	}
	if !sawFinite {
		t.Fatal("no finite Margin observed across the whole workload")
	}
}

// TestReIdentifiesBatchMatchesScalar checks the protection predicate:
// for mixed (trace, claimed-owner) pairs — true owners and wrong owners
// interleaved — the batched pass and the batch-of-one ReIdentifies both
// return exactly the Identify-loop oracle's answer pair by pair,
// including which attack hit first.
func TestReIdentifiesBatchMatchesScalar(t *testing.T) {
	for _, seed := range []uint64{17, 53} {
		train, test := testSplit(t, seed)
		atks := allAttacks()
		for _, a := range atks {
			if err := a.Train(train.Traces); err != nil {
				t.Fatal(err)
			}
		}

		var ts []trace.Trace
		var owners []string
		for i, tr := range test.Traces {
			ts = append(ts, tr.WithUser(""))
			owners = append(owners, tr.User)
			// Same trace again, claimed by a different user: must miss
			// unless the attacks genuinely confuse the two.
			ts = append(ts, tr.WithUser(""))
			owners = append(owners, test.Traces[(i+1)%len(test.Traces)].User)
		}
		ts = append(ts, trace.Trace{})
		owners = append(owners, "nobody")

		got := atks.ReIdentifiesBatch(ts, owners)
		if len(got) != len(ts) {
			t.Fatalf("ReIdentifiesBatch returned %d results for %d pairs", len(got), len(ts))
		}
		for i := range ts {
			hit, name := oracleReIdentifies(atks, ts[i], owners[i])
			if got[i].Hit != hit || got[i].Attack != name {
				t.Fatalf("seed %d, pair %d (owner %q): batch (%v, %q) != oracle (%v, %q)",
					seed, i, owners[i], got[i].Hit, got[i].Attack, hit, name)
			}
			if oneHit, oneName := atks.ReIdentifies(ts[i], owners[i]); oneHit != hit || oneName != name {
				t.Fatalf("seed %d, pair %d (owner %q): ReIdentifies (%v, %q) != oracle (%v, %q)",
					seed, i, owners[i], oneHit, oneName, hit, name)
			}
		}
	}
}

// forwarding hides an attack's concrete type behind the Attack
// interface alone — the shape of an instrumenting wrapper — so the set
// answers through Identify instead of the owner-seeded kernels.
type forwarding struct{ inner Attack }

func (f forwarding) Name() string                         { return f.inner.Name() }
func (f forwarding) Train(background []trace.Trace) error { return f.inner.Train(background) }
func (f forwarding) Identify(t trace.Trace) Verdict       { return f.inner.Identify(t) }

// TestWrappedSetMatchesBare pins the Identify fallback to the kernels:
// a set whose attacks are wrapped returns the same predicate answers
// (ReIdentifies and ReIdentifiesBatch, true and wrong owners) and the
// same BatchIdentify verdicts as the bare set, at one and two workers.
func TestWrappedSetMatchesBare(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	train, test := testSplit(t, 23)
	bare := DefaultSet()
	if err := TrainAll(bare, train.Traces); err != nil {
		t.Fatal(err)
	}
	wrapped := make(Set, len(bare))
	for i, a := range bare {
		wrapped[i] = forwarding{a}
	}
	ts := batchCandidates(test)
	var owners []string
	for i := range ts {
		owners = append(owners, test.Traces[i%len(test.Traces)].User)
	}
	for i, tr := range test.Traces {
		ts = append(ts, tr.WithUser(""))
		owners = append(owners, test.Traces[(i+1)%len(test.Traces)].User)
	}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		w := bare.ReIdentifiesBatch(ts, owners)
		if g := wrapped.ReIdentifiesBatch(ts, owners); !reflect.DeepEqual(g, w) {
			t.Fatalf("procs %d: wrapped ReIdentifiesBatch %v != bare %v", procs, g, w)
		}
		hits := 0
		for _, r := range w {
			if r.Hit {
				hits++
			}
		}
		if hits == 0 || hits == len(w) {
			t.Fatalf("procs %d: %d hits in %d pairs: the workload must both hit and miss", procs, hits, len(w))
		}
		for i := range ts {
			gh, gn := wrapped.ReIdentifies(ts[i], owners[i])
			wh, wn := bare.ReIdentifies(ts[i], owners[i])
			if gh != wh || gn != wn {
				t.Fatalf("procs %d, pair %d: wrapped ReIdentifies (%v, %q) != bare (%v, %q)", procs, i, gh, gn, wh, wn)
			}
		}
		got, want := BatchIdentify(wrapped, ts), BatchIdentify(bare, ts)
		for ai := range want {
			for i := range ts {
				if !verdictsEq(got[ai][i], want[ai][i]) {
					t.Fatalf("procs %d, %s, trace %d: wrapped %+v != bare %+v", procs, bare[ai].Name(), i, got[ai][i], want[ai][i])
				}
			}
		}
	}
}
