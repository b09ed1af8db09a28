package attack

import (
	"math"

	"mood/internal/par"
	"mood/internal/poi"
	"mood/internal/trace"
)

// The protection predicate and the identification scans. The predicate
// runs trace by trace: Set.ReIdentifies asks the attacks in set order
// over one per-trace state (anon) and stops at the first hit, and
// ReIdentifiesBatch — a re-audit over the whole published dataset — is
// its parallel fan-out. What keeps them cheap:
//
//   - the predicate's question "does any profile beat the owner's" is
//     answered by an owner-seeded scan that stops at the first beating
//     profile instead of completing the argmin;
//   - the AP scans prune with a float32 quantized pass (heatmap.Quant)
//     ahead of the exact float64 kernel, and BatchIdentify's AP scan
//     goes profile-major in cache-resident blocks;
//   - one POI extraction per trace feeds both the POI- and PIT-attacks.
//
// Exactness rests on two facts proven in topTwo's comment: the
// early-exit bound nextUp(second-best) lets every profile that could
// win or tie complete its exact scan, and the (best, user, second)
// fold is then independent of scan order — so reordering profiles into
// blocks, or conservatively skipping provable losers, cannot change
// the verdict. The property tests in batch_test.go pin both against
// unpruned argmin oracles on random and adversarially tied data.

// nextUp returns the smallest float64 greater than x.
func nextUp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

// topTwo folds completed exact profile scores into the best and
// second-best seen, with the explicit tie rule shared by every scan: on
// an exact score tie the lexicographically smallest user ID wins, not
// background insertion order — an order a profile-major batch scan
// reshuffles.
//
// bound() is the early-exit threshold handed to the exact kernels:
// nextUp(second) rather than second itself, so a profile whose true
// score equals the current second-best still completes its scan and
// reaches the tie-break (every kernel's partial sums are monotone
// non-negative, so a completed scan below the bound is exact and an
// abandoned one had a true score above second). Consequently the final
// (user, best, second) triple equals the true minimum, the smallest
// user among its ties, and the true second-smallest score — whatever
// order profiles were offered in, and however many provable losers a
// pruning pass withheld.
type topTwo struct {
	user   string
	best   float64
	second float64
	ok     bool
}

func newTopTwo() topTwo {
	return topTwo{best: math.Inf(1), second: math.Inf(1)}
}

// bound is the score at which a profile scan may abandon: reaching it
// means the profile can neither win nor tighten the runner-up.
func (k *topTwo) bound() float64 { return nextUp(k.second) }

// consider folds one completed exact score in.
func (k *topTwo) consider(user string, score float64) {
	switch {
	case !k.ok:
		k.user, k.best, k.ok = user, score, true
	case score < k.best || (score == k.best && user < k.user):
		k.second = k.best
		k.user, k.best = user, score
	case score < k.second:
		k.second = score
	}
}

// verdict renders the fold as a Verdict. Margin is +Inf when no second
// profile completed a scan (see Verdict.Margin).
func (k *topTwo) verdict() Verdict {
	if !k.ok {
		return Verdict{}
	}
	return Verdict{User: k.user, Score: k.best, Margin: k.second - k.best, OK: true}
}

// The profile types the shared scans below walk.
type userProfile interface{ userID() string }

func (p apProfile) userID() string  { return p.user }
func (p poiProfile) userID() string { return p.user }
func (p pitProfile) userID() string { return p.user }

// scoreFunc returns profile i's exact score, or any value >= bound once
// the score provably reaches bound.
type scoreFunc func(i int, bound float64) float64

// argmin is the POI- and PIT-attacks' Identify scan: every profile's
// score folds through topTwo.
func argmin[P userProfile](ps []P, score scoreFunc) Verdict {
	k := newTopTwo()
	for i := range ps {
		bound := k.bound()
		if d := score(i, bound); d < bound {
			k.consider(ps[i].userID(), d)
		}
	}
	return k.verdict()
}

// ownerHit is the owner-seeded audit scan: would Identify attribute the
// trace to owner? It does not complete the argmin: the owner's exact
// score (the minimum over the owner's profiles, normally exactly one)
// seeds the bound, and the scan stops at the first profile that
// provably beats it under the shared tie rule (lower score, or equal
// score and smaller user ID). Profiles abandoned at the
// nextUp(owner score) bound have true scores strictly above the owner's
// and cannot beat it, so the boolean equals Identify(t).OK && User ==
// owner exactly — at a fraction of the cost when a beater exists. score
// is argmin's.
func ownerHit[P userProfile](ps []P, owner string, score scoreFunc) bool {
	so := math.Inf(1)
	for i := range ps {
		if ps[i].userID() != owner {
			continue
		}
		if d := score(i, math.Inf(1)); d < so {
			so = d
		}
	}
	if math.IsInf(so, 1) {
		return false
	}
	bound := nextUp(so)
	for i := range ps {
		u := ps[i].userID()
		if u == owner {
			continue
		}
		if d := score(i, bound); d < bound && (d < so || (d == so && u < owner)) {
			return false
		}
	}
	return true
}

// anon is one anonymous trace as the attacks see it. Its POIs are
// extracted on first use and shared by the POI- and PIT-attacks.
type anon struct {
	t    trace.Trace
	pois []poi.POI
	done bool
}

// extract returns the trace's POIs, extracting them once.
func (x *anon) extract() []poi.POI {
	if !x.done {
		x.pois, x.done = poi.NewExtractor().Extract(x.t), true
	}
	return x.pois
}

// BatchIdentify scores every trace against every attack of the set:
// out[ai][ti] is bit-identical to s[ai].Identify(ts[ti]). The AP-attack
// runs its profile-major batch scan; the others run trace by trace,
// one POI extraction per trace shared by the POI- and PIT-attacks, and
// any other attack is asked through Identify.
func BatchIdentify(s Set, ts []trace.Trace) [][]Verdict {
	out := make([][]Verdict, len(s))
	for ai, atk := range s {
		if ap, ok := atk.(*AP); ok {
			out[ai] = ap.IdentifyBatch(ts)
		} else {
			out[ai] = make([]Verdict, len(ts))
		}
	}
	par.Each(len(ts), func(i int) {
		x := anon{t: ts[i]}
		for ai, atk := range s {
			switch a := atk.(type) {
			case *AP: // scored by IdentifyBatch above
			case *POIAttack:
				if s, ok := a.scorer(&x); ok {
					out[ai][i] = argmin(a.profiles, s.score)
				}
			case *PIT:
				if s, ok := a.scorer(&x); ok {
					out[ai][i] = argmin(a.profiles, s.score)
				}
			default:
				out[ai][i] = atk.Identify(x.t)
			}
		}
	})
	return out
}

// ReIdent is one (trace, user) pair's outcome of the protection
// predicate: Hit reports whether any attack linked the trace to the
// user, and Attack names the first attack (in set order) that did.
type ReIdent struct {
	Hit    bool
	Attack string
}

// ReIdentifies is the protection predicate of the paper (Eq. 4–6): it
// reports whether any attack in the set links t back to owner — some
// attack's Identify would attribute t to owner — and names the first
// attack in set order that does. A trace is protected iff no attack
// re-identifies it. The AP-, POI- and PIT-attacks answer through their
// owner-seeded scans over one per-trace state; any other Attack — a
// custom set, a wrapper — is asked through Identify.
func (s Set) ReIdentifies(t trace.Trace, owner string) (bool, string) {
	x := anon{t: t}
	for _, atk := range s {
		var hit bool
		// A type switch, not an interface method: a dynamic call would
		// move x to the heap.
		switch a := atk.(type) {
		case *AP:
			hit = a.hitOne(t, owner)
		case *POIAttack:
			if s, ok := a.scorer(&x); ok {
				hit = ownerHit(a.profiles, owner, s.score)
			}
		case *PIT:
			if s, ok := a.scorer(&x); ok {
				hit = ownerHit(a.profiles, owner, s.score)
			}
		default:
			v := atk.Identify(t)
			hit = v.OK && v.User == owner
		}
		if hit {
			return true, atk.Name()
		}
	}
	return false, ""
}

// ReIdentifiesBatch is ReIdentifies over many (trace, user) pairs, run
// in parallel: out[i] is ReIdentifies(ts[i], users[i]).
func (s Set) ReIdentifiesBatch(ts []trace.Trace, users []string) []ReIdent {
	out := make([]ReIdent, len(ts))
	par.Each(len(ts), func(i int) {
		out[i].Hit, out[i].Attack = s.ReIdentifies(ts[i], users[i])
	})
	return out
}
