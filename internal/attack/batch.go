package attack

import (
	"math"

	"mood/internal/par"
	"mood/internal/poi"
	"mood/internal/trace"
)

// Batch identification. The protection predicate and the
// identification scans run over batches of anonymous traces — a batch of
// one for the engine's per-candidate check, the whole published dataset
// for a re-audit — and the batch shape is what makes them cheap:
//
//   - each attack freezes (or POI-extracts) every anonymous trace of
//     the batch exactly once;
//   - the AP scan goes profile-major in cache-resident blocks, with a
//     float32 quantized pruning pass (heatmap.Quant) ahead of the
//     exact float64 kernel;
//   - the predicate's question "does any profile beat the owner's" is
//     answered by an owner-seeded scan that stops at the first beating
//     profile instead of completing the argmin;
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

// argmin is the POI- and PIT-attacks' Identify scan: every profile's
// score folds through topTwo. score(i, bound) returns profile i's exact score, or any value
// >= bound once the score provably reaches bound.
func argmin[P userProfile](ps []P, score func(i int, bound float64) float64) Verdict {
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
func ownerHit[P userProfile](ps []P, owner string, score func(i int, bound float64) float64) bool {
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

// poiCache extracts the POIs of each anonymous trace of a batch once,
// on first use: the POI- and PIT-attacks share the extraction.
type poiCache struct {
	ts   []trace.Trace
	pois [][]poi.POI
	done []bool
}

// extract returns the POIs of every trace named in idxs (indices into
// c.ts), extracting missing entries in parallel.
func (c *poiCache) extract(idxs []int) [][]poi.POI {
	if c.pois == nil {
		c.pois, c.done = make([][]poi.POI, len(c.ts)), make([]bool, len(c.ts))
	}
	todo := make([]int, 0, len(idxs))
	for _, i := range idxs {
		if !c.done[i] {
			todo = append(todo, i)
		}
	}
	par.Each(len(todo), func(j int) {
		i := todo[j]
		c.pois[i] = poi.NewExtractor().Extract(c.ts[i])
		c.done[i] = true
	})
	return c.pois
}

// indices returns 0, 1, …, n-1.
func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// BatchIdentify scores every trace against every attack of the set
// with the batch kernels: out[ai][ti] is bit-identical to
// s[ai].Identify(ts[ti]). One POI extraction per trace is shared by
// the POI- and PIT-attacks; attacks without a kernel are called trace
// by trace.
func BatchIdentify(s Set, ts []trace.Trace) [][]Verdict {
	out := make([][]Verdict, len(s))
	cache := poiCache{ts: ts}
	all := indices(len(ts))
	for ai, atk := range s {
		identify := func(i int) Verdict { return atk.Identify(ts[i]) }
		switch a := atk.(type) {
		case *AP:
			out[ai] = a.IdentifyBatch(ts)
			continue
		case *POIAttack:
			if a.scans() {
				ps := cache.extract(all)
				identify = func(i int) Verdict { return a.identifyPOIs(ps[i]) }
			}
		case *PIT:
			if a.scans() {
				ps := cache.extract(all)
				identify = func(i int) Verdict { return a.identifyChain(buildChain(ps[i], ts[i])) }
			}
		}
		vs := make([]Verdict, len(ts))
		par.Spans(len(ts), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				vs[i] = identify(i)
			}
		})
		out[ai] = vs
	}
	return out
}

// hit answers the predicate for trace i of a batch, ts[i] = t, with
// atk's owner-seeded kernel; ps holds the batch's POIs for the POI- and
// PIT-attacks. Any other Attack is asked through Identify.
func hit(atk Attack, t trace.Trace, ps [][]poi.POI, i int, owner string) bool {
	switch a := atk.(type) {
	case *AP:
		return a.hitOne(t, owner)
	case *POIAttack:
		return a.hitPOIs(ps[i], owner)
	case *PIT:
		return a.hitChain(buildChain(ps[i], t), owner)
	}
	v := atk.Identify(t)
	return v.OK && v.User == owner
}

// ReIdent is one (trace, user) pair's outcome of the protection
// predicate: Hit reports whether any attack linked the trace to the
// user, and Attack names the first attack (in set order) that did.
type ReIdent struct {
	Hit    bool
	Attack string
}

// ReIdentifiesBatch is the protection predicate of the paper (Eq. 4–6)
// for many (trace, user) pairs in one pass: a pair is a hit iff some
// attack's Identify would attribute the trace to the user. Attacks run
// in set order and a trace leaves the batch at its first hit, so
// Attack names the first attack that links it. The AP-, POI- and
// PIT-attacks answer through their owner-seeded hit scans over one
// freeze/extraction per trace (see the comment at the top of this
// file); any other Attack — a custom set, a wrapper — is asked through
// Identify.
func (s Set) ReIdentifiesBatch(ts []trace.Trace, users []string) []ReIdent {
	out := make([]ReIdent, len(ts))
	cache := poiCache{ts: ts}
	remaining := indices(len(ts))
	for _, atk := range s {
		if len(remaining) == 0 {
			break
		}
		var ps [][]poi.POI
		switch a := atk.(type) {
		case *POIAttack:
			if !a.scans() {
				continue // no verdicts, no hits
			}
			ps = cache.extract(remaining)
		case *PIT:
			if !a.scans() {
				continue
			}
			ps = cache.extract(remaining)
		}
		hits := make([]bool, len(remaining))
		par.Spans(len(remaining), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				i := remaining[j]
				hits[j] = hit(atk, ts[i], ps, i, users[i])
			}
		})
		name := atk.Name()
		next := remaining[:0]
		for j, i := range remaining {
			if hits[j] {
				out[i] = ReIdent{Hit: true, Attack: name}
			} else {
				next = append(next, i)
			}
		}
		remaining = next
	}
	return out
}
