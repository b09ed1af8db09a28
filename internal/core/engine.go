// Package core implements the paper's contribution: the MooD engine
// (Algorithm 1). Per user, the engine searches for a protecting
// single LPPM, then for a protecting ordered composition of LPPMs
// (Multi-LPPM Composition Search, §3.3), and falls back to fine-grained
// protection (§3.4): the trace is cut into 24 h chunks, each chunk is
// recursively halved down to δ, every protected sub-trace is published
// under a fresh pseudonym, and whatever cannot be protected is erased.
// Among protecting transformations, the one with the best utility wins
// (Best LPPM Selection, §3.5).
package core

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"time"

	"mood/internal/attack"
	"mood/internal/lppm"
	"mood/internal/mathx"
	"mood/internal/metrics"
	"mood/internal/par"
	"mood/internal/trace"
)

// Defaults from the paper's experimental setup (§4.2).
const (
	// DefaultDelta is δ, the minimum sub-trace duration below which the
	// fine-grained recursion stops and records are erased (4 h).
	DefaultDelta = 4 * time.Hour
	// DefaultChunk is the initial fine-grained slice (24 h, the daily
	// crowd-sensing upload).
	DefaultChunk = 24 * time.Hour
)

// ErrNoLPPMs is returned by Engine methods when no mechanisms are
// configured.
var ErrNoLPPMs = errors.New("core: engine has no LPPMs")

// Engine runs MooD. Configure the fields, then call Protect or
// ProtectDataset. The attacks must already be trained on the background
// knowledge H. An Engine is safe for concurrent use.
type Engine struct {
	// LPPMs is the mechanism portfolio L.
	LPPMs []lppm.Mechanism
	// Attacks is the trained attack set A the protection must resist.
	Attacks attack.Set
	// Utility is the metric M of the Best LPPM Selection stage
	// (defaults to spatio-temporal distortion).
	Utility metrics.Utility
	// Delta is δ (defaults to 4 h).
	Delta time.Duration
	// Chunk is the initial fine-grained slice (defaults to 24 h).
	Chunk time.Duration
	// Seed drives every stochastic mechanism application; a given
	// (Seed, user) pair reproduces the exact published output.
	Seed uint64
	// Search selects the composition search strategy (defaults to
	// brute force, as in the paper; see search.go for the heuristic
	// extension of §6).
	Search SearchStrategy
}

// Piece is one published fragment of a user's protected data.
type Piece struct {
	// Trace is the obfuscated output. For fine-grained pieces the user
	// label is a fresh pseudonym.
	Trace trace.Trace
	// Mechanism names the LPPM or composition that protected the piece.
	Mechanism string
	// Distortion is the utility score versus the original fragment.
	Distortion float64
	// SourceRecords is the record count of the original fragment.
	SourceRecords int
	// Composed reports whether a multi-LPPM composition was needed.
	Composed bool
	// Depth is the fine-grained recursion depth (0 = whole trace,
	// 1 = 24 h chunk, 2+ = recursive halves).
	Depth int
}

// Stats counts the work done while protecting one trace.
type Stats struct {
	// Candidates is the number of obfuscations generated: every
	// candidate of every tier a search entered.
	Candidates int
	// Judged is the number of candidates that reached the protection
	// predicate: the non-empty obfuscations of a tier, in utility order,
	// up to and including the tier's first protector (see
	// selection.selectBest).
	Judged int
	// AttackCalls is Judged × len(Attacks), whether or not an early hit
	// let the predicate skip the later attacks.
	AttackCalls int
	// SplitCount is the number of fine-grained splits performed.
	SplitCount int
}

func (s *Stats) add(o Stats) {
	s.Candidates += o.Candidates
	s.Judged += o.Judged
	s.AttackCalls += o.AttackCalls
	s.SplitCount += o.SplitCount
}

// Result is the outcome of protecting one user.
type Result struct {
	// User is the original identity.
	User string
	// Pieces are the protected fragments to publish (empty when the
	// user could not be protected at all).
	Pieces []Piece
	// TotalRecords is the record count of the original trace.
	TotalRecords int
	// LostRecords counts original records erased because their fragment
	// stayed vulnerable even at δ granularity (Eq. 7's numerator).
	LostRecords int
	// UsedComposition reports that a multi-LPPM composition was needed
	// (the user is an orphan w.r.t. single LPPMs, Def. 4).
	UsedComposition bool
	// UsedFineGrained reports that the fine-grained stage ran (the user
	// is an orphan even w.r.t. compositions).
	UsedFineGrained bool
	// Chunks reports the outcome of every 24 h sub-trace of the
	// fine-grained stage (empty unless UsedFineGrained); Figure 8 is
	// drawn from these.
	Chunks []ChunkOutcome
	// Stats records the search effort.
	Stats Stats
}

// ChunkOutcome summarises the fine-grained protection of one 24 h chunk.
type ChunkOutcome struct {
	// Records is the chunk's original record count.
	Records int
	// Lost is how many of those records had to be erased.
	Lost int
	// Pieces is how many protected fragments the chunk produced.
	Pieces int
}

// Protected reports whether the whole chunk survived.
func (c ChunkOutcome) Protected() bool { return c.Lost == 0 && c.Pieces > 0 }

// FullyProtected reports whether every original record was published in
// protected form.
func (r Result) FullyProtected() bool { return r.LostRecords == 0 && len(r.Pieces) > 0 }

// ProtectedRecords returns the number of original records that made it
// into the published output.
func (r Result) ProtectedRecords() int { return r.TotalRecords - r.LostRecords }

// MeanDistortion averages piece distortion weighted by source records.
// It returns 0 when nothing was protected.
func (r Result) MeanDistortion() float64 {
	var sum, w float64
	for _, p := range r.Pieces {
		sum += p.Distortion * float64(p.SourceRecords)
		w += float64(p.SourceRecords)
	}
	if w == 0 {
		return 0
	}
	return sum / w
}

func (e *Engine) utility() metrics.Utility {
	if e.Utility != nil {
		return e.Utility
	}
	return metrics.STDUtility{}
}

func (e *Engine) delta() time.Duration {
	if e.Delta > 0 {
		return e.Delta
	}
	return DefaultDelta
}

func (e *Engine) chunk() time.Duration {
	if e.Chunk > 0 {
		return e.Chunk
	}
	return DefaultChunk
}

func (e *Engine) search() SearchStrategy {
	if e.Search != nil {
		return e.Search
	}
	return BruteForce{}
}

// Protect runs Algorithm 1 on one trace.
func (e *Engine) Protect(t trace.Trace) (Result, error) {
	if len(e.LPPMs) == 0 {
		return Result{}, ErrNoLPPMs
	}
	if t.Empty() {
		return Result{}, fmt.Errorf("core: user %q: %w", t.User, lppm.ErrEmptyTrace)
	}

	res := Result{User: t.User, TotalRecords: t.Len()}

	// Stage 1 + 2: whole-trace single and composition search.
	piece, found, stats := e.searchTrace(t, t.User, "whole", 0)
	res.Stats.add(stats)
	if found {
		res.UsedComposition = piece.Composed
		res.Pieces = []Piece{piece}
		return res, nil
	}

	// Stage 3: fine-grained protection on Chunk slices (24 h by default).
	res.UsedComposition = true
	res.UsedFineGrained = true
	chunks := t.Chunks(e.chunk())
	pseudo := 0
	for ci, chunk := range chunks {
		pieces, lost, st := e.protectFragment(chunk, t.User, "c"+strconv.Itoa(ci), 1)
		res.Stats.add(st)
		res.LostRecords += lost
		res.Chunks = append(res.Chunks, ChunkOutcome{
			Records: chunk.Len(),
			Lost:    lost,
			Pieces:  len(pieces),
		})
		for _, p := range pieces {
			pseudo++
			p.Trace = p.Trace.WithUser(e.pseudonym(t.User, pseudo))
			res.Pieces = append(res.Pieces, p)
		}
	}
	return res, nil
}

// protectFragment implements the recursive part of Algorithm 1
// (lines 27-36): search, then split in half and recurse while the
// fragment is at least δ long.
func (e *Engine) protectFragment(t trace.Trace, user, path string, depth int) ([]Piece, int, Stats) {
	var stats Stats
	if t.Empty() {
		return nil, 0, stats
	}
	piece, found, st := e.searchTrace(t, user, path, depth)
	stats.add(st)
	if found {
		return []Piece{piece}, 0, stats
	}
	if t.Duration() < e.delta() || t.Len() < 2 {
		// Line 36: fragment erased.
		return nil, t.Len(), stats
	}
	stats.SplitCount++
	first, second := t.SplitHalf()
	p1, l1, s1 := e.protectFragment(first, user, path+".a", depth+1)
	p2, l2, s2 := e.protectFragment(second, user, path+".b", depth+1)
	stats.add(s1)
	stats.add(s2)
	return append(p1, p2...), l1 + l2, stats
}

// searchTrace runs the single-LPPM pass and, if needed, the composition
// pass on one fragment, returning the best protecting piece.
func (e *Engine) searchTrace(t trace.Trace, user, path string, depth int) (Piece, bool, Stats) {
	return e.search().Search(e, t, user, path, depth)
}

// selection is what one fragment's Best LPPM Selection (§3.5) needs: the
// attacks a candidate must resist, the utility that ranks candidates,
// and the key each candidate's randomness derives from — (seed, stream,
// user, path, mechanism name), without path when it is empty — plus the
// scratch every fragment reuses. Selections come from a pool: take one
// with newSelection, and end every fragment's search with done.
type selection struct {
	attacks            attack.Set
	utility            metrics.Utility
	seed               uint64
	stream, user, path string
	depth              int
	// rng is reseeded for every candidate that draws randomness (see
	// rand), and kept from fragment to fragment.
	rng *mathx.Rand
	// ranked is a tier's candidates in utility order; every tier reuses
	// it.
	ranked []Piece
	// spent lists the buffers of the pooled outputs the fragment's search
	// made, the winner's among them; done hands them back.
	spent [][]trace.Record
	// memo is the output (or error) of the single tier's deterministic
	// candidate on the fragment, which the chains that start with that
	// mechanism reuse instead of running it again.
	memo struct {
		mech lppm.Mechanism
		out  trace.Trace
		err  error
	}
}

var selections = sync.Pool{New: func() any { return new(selection) }}

// newSelection keys the candidates of user's fragment at path (empty for
// a whole-trace baseline) in the given random stream.
func newSelection(attacks attack.Set, utility metrics.Utility, seed uint64, stream, user, path string, depth int) *selection {
	s := selections.Get().(*selection)
	s.attacks, s.utility, s.seed = attacks, utility, seed
	s.stream, s.user, s.path, s.depth = stream, user, path, depth
	return s
}

// selection keys the engine's candidates for fragment path of user.
func (e *Engine) selection(user, path string, depth int) *selection {
	return newSelection(e.Attacks, e.utility(), e.Seed, "mood", user, path, depth)
}

// done ends the fragment's search with its outcome. The winner leaves
// in an exactly-sized copy of its records that it owns; every pooled
// output of the search goes back to lppm's pool, and s to its own.
func (s *selection) done(p Piece, found bool, stats Stats) (Piece, bool, Stats) {
	if found {
		p.Trace = p.Trace.Clone()
	}
	for i, recs := range s.spent {
		lppm.Recycle(recs)
		s.spent[i] = nil
	}
	s.spent = s.spent[:0]
	clear(s.ranked)
	s.ranked = s.ranked[:0]
	s.memo.mech, s.memo.out, s.memo.err = nil, trace.Trace{}, nil
	s.attacks, s.utility = nil, nil
	selections.Put(s)
	return p, found, stats
}

// rand returns the stream of the candidate called name, which is the
// stream DeriveRand keys to it. Candidates run one after the other, so
// they share one generator, reseeded for each.
func (s *selection) rand(name string) *mathx.Rand {
	if s.path == "" {
		s.rng = mathx.Reseed(s.rng, s.seed, s.stream, s.user, name)
	} else {
		s.rng = mathx.Reseed(s.rng, s.seed, s.stream, s.user, s.path, name)
	}
	return s.rng
}

// obfuscate runs candidate m, a mechanism or a chain of them, on t. A
// chain runs stage by stage, as Chain.Obfuscate does, so that each
// pooled stage output is spent, and a chain that starts with the
// memoized mechanism starts from its memoized output. A candidate that
// draws no randomness gets the stream unseeded; any other gets the one
// keyed to its name, which the memoized stage does not touch.
func (s *selection) obfuscate(m lppm.Mechanism, name string, t trace.Trace) (trace.Trace, error) {
	stages := []lppm.Mechanism{m}
	if c, ok := m.(lppm.Chain); ok {
		if len(c.Mechs) == 0 {
			return trace.Trace{}, lppm.ErrEmptyChain
		}
		stages = c.Mechs
	}
	rng := s.rng
	for _, st := range stages {
		if !lppm.IsDeterministic(st) {
			rng = s.rand(name)
			break
		}
	}
	cur, start := t, 0
	if len(stages) > 1 && s.memo.mech != nil && sameMechanism(stages[0], s.memo.mech) {
		if s.memo.err != nil {
			return trace.Trace{}, s.memo.err
		}
		cur, start = s.memo.out, 1
	}
	for _, st := range stages[start:] {
		out, err := st.Obfuscate(rng, cur)
		if err == nil && lppm.Pooled(st) {
			s.spent = append(s.spent, out.Records)
		}
		if len(stages) == 1 && s.memo.mech == nil && lppm.IsDeterministic(st) {
			s.memo.mech, s.memo.out, s.memo.err = st, out, err
		}
		if err != nil {
			return trace.Trace{}, err
		}
		cur = out
	}
	return cur, nil
}

// sameMechanism reports whether a and b are one mechanism value. Only
// pointers compare: == on two values of one incomparable type panics.
func sameMechanism(a, b lppm.Mechanism) bool {
	return reflect.TypeOf(a).Kind() == reflect.Pointer && a == b
}

// selectBest runs one tier of the Best LPPM Selection: it obfuscates t with
// every candidate, orders the obfuscations by utility and judges them in
// that order, returning the first that no attack re-identifies.
//
// That is the piece the paper's exhaustive loop keeps. The loop replaces
// its best protector only on a strictly Better one, so among the
// protectors of the best utility it keeps the first in enumeration
// order, and the stable insertion sort below (ties keep enumeration
// order) ranks exactly that protector ahead of every other. Each
// candidate's randomness is keyed by its name, not by when it runs, so
// the obfuscations are the loop's too. Only the work counters differ:
// candidates ranked behind the winner are never judged. This holds for
// any Utility whose Better is a strict weak order (STD's < and
// coverage's > on finite scores are).
//
// The piece returned still holds the search's buffers: done copies it.
func (s *selection) selectBest(cands []lppm.Mechanism, t trace.Trace) (Piece, bool, Stats) {
	stats := Stats{Candidates: len(cands)}
	if cap(s.ranked) < len(cands) {
		s.ranked = make([]Piece, 0, len(cands))
	}
	s.ranked = s.ranked[:0]
	for _, m := range cands {
		name := m.Name()
		obf, err := s.obfuscate(m, name, t)
		if err != nil || obf.Empty() {
			// A mechanism that cannot process the fragment simply does not
			// protect it; Algorithm 1 moves on to the next candidate.
			continue
		}
		p := Piece{
			Trace:         obf,
			Mechanism:     name,
			Distortion:    s.utility.Measure(t, obf),
			SourceRecords: t.Len(),
			Composed:      chainLen(m) > 1,
			Depth:         s.depth,
		}
		i := len(s.ranked)
		s.ranked = append(s.ranked, p)
		for ; i > 0 && s.utility.Better(p.Distortion, s.ranked[i-1].Distortion); i-- {
			s.ranked[i] = s.ranked[i-1]
		}
		s.ranked[i] = p
	}
	for i := range s.ranked {
		stats.Judged++
		stats.AttackCalls += len(s.attacks)
		if hit, _ := s.attacks.ReIdentifies(s.ranked[i].Trace.WithUser(""), s.user); !hit {
			return s.ranked[i], true, stats
		}
	}
	return Piece{}, false, stats
}

func chainLen(m lppm.Mechanism) int {
	if c, ok := m.(lppm.Chain); ok {
		return c.Len()
	}
	return 1
}

// pseudonym derives a deterministic fresh identity for a fine-grained
// piece (§3.4's renew_Ids).
func (e *Engine) pseudonym(user string, n int) string {
	h := mathx.DeriveSeed(e.Seed, "pseudonym", user, strconv.Itoa(n))
	return "anon-" + strconv.FormatUint(h&0xffffffffff, 36)
}

// protectEach runs protect over every trace of d through par.Each,
// preserving input order: slot i always holds trace
// i's outcome, so callers see exactly the sequential result. It is the
// shared fan-out of every Protector's ProtectDataset — protect must be a
// deterministic, concurrency-safe function of its trace, which all three
// protectors are (mechanisms are value types, trained attacks are
// immutable, randomness derives from (Seed, user)).
func protectEach(d trace.Dataset, protect func(trace.Trace) (Result, error)) ([]Result, []error) {
	results := make([]Result, len(d.Traces))
	errs := make([]error, len(d.Traces))
	par.Each(len(d.Traces), func(i int) { results[i], errs[i] = protect(d.Traces[i]) })
	return results, errs
}

// ProtectDataset protects every trace of d in parallel and returns the
// per-user results ordered by user ID.
func (e *Engine) ProtectDataset(d trace.Dataset) ([]Result, error) {
	if len(e.LPPMs) == 0 {
		return nil, ErrNoLPPMs
	}
	results, errs := protectEach(d, e.Protect)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: protecting %s: %w", d.Traces[i].User, err)
		}
	}
	return results, nil
}

// PublishDataset assembles the protected dataset from results: one trace
// per piece, whole-trace pieces keeping the original (pseudonymous
// upstream) user ID and fine-grained pieces their fresh pseudonyms.
func PublishDataset(name string, results []Result) trace.Dataset {
	var traces []trace.Trace
	for _, r := range results {
		for _, p := range r.Pieces {
			traces = append(traces, p.Trace)
		}
	}
	return trace.NewDataset(name, traces)
}

// DataLoss computes Eq. 7 over a batch of results.
func DataLoss(results []Result) float64 {
	var lost, total int
	for _, r := range results {
		lost += r.LostRecords
		total += r.TotalRecords
	}
	if total == 0 {
		return 0
	}
	return float64(lost) / float64(total)
}
