package core

import (
	"sort"

	"mood/internal/lppm"
	"mood/internal/mathx"
	"mood/internal/trace"
)

// SearchStrategy explores the composition space C for one fragment.
// Implementations must honour Algorithm 1's contract: try single LPPMs
// first and only fall through to strict compositions when no single
// protects (the paper returns the best *single* when one exists, even if
// a composition would have better utility).
type SearchStrategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Search returns the best protecting piece for fragment t of user,
	// whether one was found, and the work counters.
	Search(e *Engine, t trace.Trace, user, path string, depth int) (Piece, bool, Stats)
}

// BruteForce is the paper's exhaustive search: it returns the
// protecting single LPPM with the best utility, else the protecting
// strict composition with the best utility. Each tier obfuscates every
// candidate and measures its utility, then judges the candidates best
// utility first and stops at the first protector — the one an
// exhaustive evaluation keeps (see selection.selectBest).
type BruteForce struct{}

var _ SearchStrategy = BruteForce{}

// Name implements SearchStrategy.
func (BruteForce) Name() string { return "brute" }

// Search implements SearchStrategy.
func (BruteForce) Search(e *Engine, t trace.Trace, user, path string, depth int) (Piece, bool, Stats) {
	s := e.selection(user, path, depth)

	// Lines 4-14: single LPPMs, best utility among the protecting ones.
	best, found, stats := s.selectBest(e.LPPMs, t)
	if found {
		return s.done(best, true, stats)
	}

	// Lines 15-26: strict compositions C − L.
	best, found, st := s.selectBest(mechanisms(lppm.CompositionsOnly(e.LPPMs)), t)
	stats.add(st)
	return s.done(best, found, stats)
}

// mechanisms widens chains to the candidate type of a tier.
func mechanisms(chains []lppm.Chain) []lppm.Mechanism {
	out := make([]lppm.Mechanism, len(chains))
	for i, c := range chains {
		out[i] = c
	}
	return out
}

// Greedy is the heuristic composition search the paper's §6 calls for
// ("optimizing the search by exploring new heuristics"): its single-LPPM
// tier is brute force's; when no single protects, each mechanism's
// distortion on this fragment is probed without a verdict, strict
// compositions are ordered by the sum of their members' probed
// distortions, and the scan stops at the first protecting composition.
// It trades the guarantee of the best utility for fewer obfuscations —
// brute force obfuscates every composition before judging any; the
// ablation benchmark quantifies both sides.
type Greedy struct{}

var _ SearchStrategy = Greedy{}

// Name implements SearchStrategy.
func (Greedy) Name() string { return "greedy" }

// Search implements SearchStrategy.
func (Greedy) Search(e *Engine, t trace.Trace, user, path string, depth int) (Piece, bool, Stats) {
	s := e.selection(user, path, depth)

	// Single pass, as brute force's.
	best, found, stats := s.selectBest(e.LPPMs, t)
	if found {
		return s.done(best, true, stats)
	}

	// No single protects: probe every mechanism's distortion as the
	// heuristic signal; an un-measurable mechanism ranks last.
	distortion := make(map[string]float64, len(e.LPPMs))
	for _, m := range e.LPPMs {
		distortion[m.Name()] = s.probe(m, t)
	}

	chains := lppm.CompositionsOnly(e.LPPMs)
	type ranked struct {
		chain lppm.Chain
		score float64
	}
	order := make([]ranked, len(chains))
	for i, c := range chains {
		var sum float64
		for _, m := range c.Mechs {
			sum += distortion[m.Name()]
		}
		order[i] = ranked{chain: c, score: sum}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].score < order[j].score })

	for _, r := range order {
		p, ok, st := s.selectBest([]lppm.Mechanism{r.chain}, t)
		stats.add(st)
		if ok {
			return s.done(p, true, stats) // first protecting composition wins
		}
	}
	return s.done(Piece{}, false, stats)
}

// probe measures a mechanism's utility cost on t without any attack
// evaluation (heuristic signal only), in the stream keyed to
// ("probe", user, path, name). A deterministic mechanism's output is
// the single tier's, which the memo holds.
func (s *selection) probe(m lppm.Mechanism, t trace.Trace) float64 {
	var obf trace.Trace
	var err error
	if s.memo.mech != nil && sameMechanism(m, s.memo.mech) {
		obf, err = s.memo.out, s.memo.err
	} else {
		s.rng = mathx.Reseed(s.rng, s.seed, "probe", s.user, s.path, m.Name())
		obf, err = m.Obfuscate(s.rng, t)
		if err == nil && lppm.Pooled(m) {
			s.spent = append(s.spent, obf.Records)
		}
	}
	if err != nil || obf.Empty() {
		return worstScore()
	}
	return s.utility.Measure(t, obf)
}

func worstScore() float64 { return 1e300 }
