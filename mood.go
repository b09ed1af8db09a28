// Package mood is a user-centric location-privacy middleware: it
// reproduces MooD ("MObility Data Privacy as Orphan Disease", Khalfoun
// et al., ACM Middleware 2019), a system that protects every user of a
// mobility dataset against re-identification attacks by combining
// off-the-shelf Location Privacy Protection Mechanisms (LPPMs).
//
// The core idea: for each user, try every single LPPM; if none resists
// the attack set, try every ordered composition of LPPMs; if the user is
// still re-identifiable (an "orphan user"), split the trace into daily
// chunks, recursively halve them, and protect each sub-trace
// independently under fresh pseudonyms. Among protecting
// transformations, the one with the lowest spatio-temporal distortion is
// published.
//
// # Quick start
//
//	background := ... // []mood.Trace of past, non-sensitive mobility
//	pipeline, err := mood.NewPipeline(background, mood.WithSeed(42))
//	if err != nil { ... }
//	result, err := pipeline.Protect(todaysTrace)
//	if err != nil { ... }
//	for _, piece := range result.Pieces {
//	    publish(piece.Trace) // resists AP-, POI- and PIT-attacks
//	}
//
// The subpackages under internal/ implement the substrates: trace data
// model, geodesy, POI extraction, heatmaps, Markov chains, the three
// attacks, the three LPPMs, the evaluation harness that regenerates
// every figure of the paper, and a crowd-sensing HTTP middleware.
package mood

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"mood/internal/attack"
	"mood/internal/core"
	"mood/internal/lppm"
	"mood/internal/metrics"
	"mood/internal/profile"
	"mood/internal/trace"
)

// Re-exported data model types. These aliases make the internal packages'
// types part of the public API without duplicating them.
type (
	// Record is a spatio-temporal sample (lat, lon, Unix seconds).
	Record = trace.Record
	// Trace is one user's time-ordered mobility trace.
	Trace = trace.Trace
	// Dataset is a named collection of per-user traces.
	Dataset = trace.Dataset
	// Mechanism is a Location Privacy Protection Mechanism.
	Mechanism = lppm.Mechanism
	// Attack is a user re-identification attack.
	Attack = attack.Attack
	// Result is the outcome of protecting one user.
	Result = core.Result
	// Piece is one published fragment of protected data.
	Piece = core.Piece
	// Utility scores obfuscations (lower STD = better by default).
	Utility = metrics.Utility
)

// NewTrace builds a sorted trace for a user (records are copied).
func NewTrace(user string, records []Record) Trace { return trace.New(user, records) }

// NewDataset builds a dataset sorted by user (duplicate users merge).
func NewDataset(name string, traces []Trace) Dataset { return trace.NewDataset(name, traces) }

// STD computes the paper's spatio-temporal distortion metric (Eq. 8).
func STD(original, obfuscated Trace) float64 { return metrics.STD(original, obfuscated) }

// Pipeline bundles trained attacks, the LPPM portfolio and the MooD
// engine behind one handle. Build it once from background knowledge and
// reuse it; it is safe for concurrent use.
type Pipeline struct {
	engine *core.Engine
	hybrid core.Hybrid
	atks   attack.Set
	lppms  []Mechanism
	opts   []Option // kept so Retrain can rebuild with the same config
	// initial is H₀, the background the pipeline was built on; RetrainWith
	// merges the upload history into it and passes it on unchanged.
	initial []Trace
}

// options collects the pipeline configuration.
type options struct {
	seed      uint64
	delta     time.Duration
	chunk     time.Duration
	epsilon   float64
	trlRadius float64
	greedy    bool
	kanon     int
	extraMech []Mechanism
	attacks   attack.Set
	utility   Utility
}

// Option configures NewPipeline.
type Option func(*options)

// WithSeed fixes the random seed; a given (seed, user) pair reproduces
// the published output bit for bit.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithDelta overrides δ, the minimum sub-trace duration of the
// fine-grained stage (default 4 h).
func WithDelta(d time.Duration) Option { return func(o *options) { o.delta = d } }

// WithChunk overrides the initial fine-grained slice (default 24 h).
func WithChunk(d time.Duration) Option { return func(o *options) { o.chunk = d } }

// WithEpsilon overrides Geo-I's privacy parameter (default 0.01 /m);
// NewPipeline refuses one that is not positive and finite.
func WithEpsilon(eps float64) Option { return func(o *options) { o.epsilon = eps } }

// WithTRLRadius overrides TRL's assisted-location range (default 1 km);
// NewPipeline refuses one that is not positive and finite.
func WithTRLRadius(r float64) Option { return func(o *options) { o.trlRadius = r } }

// WithGreedySearch switches the composition search from the paper's
// brute force to the §6 heuristic (fewer obfuscated compositions,
// possibly suboptimal utility).
func WithGreedySearch() Option { return func(o *options) { o.greedy = true } }

// WithExtraMechanisms appends custom LPPMs to the portfolio; they take
// part in single and composition search.
func WithExtraMechanisms(ms ...Mechanism) Option {
	return func(o *options) { o.extraMech = append(o.extraMech, ms...) }
}

// WithAttacks replaces the default attack set (AP + POI + PIT). The
// attacks are trained on the pipeline's background knowledge: the
// built-in AP-, POI- and PIT-attacks as views over the profiles HMC
// uses, any other attack through its Train.
func WithAttacks(as ...Attack) Option {
	return func(o *options) { o.attacks = attack.Set(as) }
}

// WithUtility replaces the utility metric of the best-LPPM selection.
func WithUtility(u Utility) Option { return func(o *options) { o.utility = u } }

// WithKAnonymity adds a k-anonymity generalisation mechanism to the
// portfolio (paper §6: MooD extends with further state-of-the-art
// LPPMs). Every location it publishes is coarsened to a region at least
// k background users visit.
func WithKAnonymity(k int) Option { return func(o *options) { o.kanon = k } }

// NewPipeline trains the attack set on background knowledge, builds the
// LPPM portfolio (HMC → Geo-I → TRL, in the paper's distortion order)
// and returns a ready-to-use Pipeline.
//
// The background traces play the paper's H: the attacker-side history
// used both to train the re-identification attacks and as HMC's pool of
// imitation targets. They must contain at least two non-empty users.
func NewPipeline(background []Trace, opts ...Option) (*Pipeline, error) {
	if len(background) == 0 {
		return nil, errors.New("mood: empty background knowledge")
	}
	o := options{
		epsilon:   lppm.DefaultEpsilon,
		trlRadius: lppm.DefaultTRLRadius,
	}
	for _, opt := range opts {
		opt(&o)
	}
	geoi := lppm.GeoI{Epsilon: o.epsilon}
	trl := lppm.TRL{Radius: o.trlRadius, NumAssisted: 3}
	if err := errors.Join(geoi.Validate(), trl.Validate()); err != nil {
		return nil, fmt.Errorf("mood: %w", err)
	}

	// One profile set is H for both halves: HMC's imitation pool and the
	// attacks' profiles share each user's features, on the paper's 800 m
	// grid.
	ps := profile.New(background, 0)
	hmc, err := lppm.NewHMCOn(ps)
	if err != nil {
		return nil, fmt.Errorf("mood: building HMC: %w", err)
	}
	portfolio := []Mechanism{hmc, geoi, trl}
	if o.kanon > 0 {
		ka, err := lppm.NewKAnon(o.kanon, ps)
		if err != nil {
			return nil, fmt.Errorf("mood: building KAnon: %w", err)
		}
		portfolio = append(portfolio, ka)
	}
	portfolio = append(portfolio, o.extraMech...)

	atks := o.attacks
	if atks == nil {
		atks = attack.DefaultSet()
	}
	if err := atks.TrainOn(ps); err != nil {
		return nil, fmt.Errorf("mood: %w", err)
	}

	var search core.SearchStrategy
	if o.greedy {
		search = core.Greedy{}
	}
	stored := make([]Option, len(opts))
	copy(stored, opts)
	return &Pipeline{
		engine: &core.Engine{
			LPPMs:   portfolio,
			Attacks: atks,
			Utility: o.utility,
			Delta:   o.delta,
			Chunk:   o.chunk,
			Seed:    o.seed,
			Search:  search,
		},
		hybrid:  core.Hybrid{LPPMs: portfolio, Attacks: atks, Utility: o.utility, Seed: o.seed},
		atks:    atks,
		lppms:   portfolio,
		opts:    stored,
		initial: background,
	}, nil
}

// Retrain builds a fresh Pipeline with the same configuration but new
// background knowledge — the paper's §6 extension: "the training set of
// the re-identification attacks can be periodically updated … a dynamic
// protection that evolves with the possible evolutions of the user
// behaviour". The attack set and HMC's imitation pool are rebuilt from
// scratch on the new background; the original Pipeline is untouched and
// keeps serving, so callers can hot-swap atomically. The new background
// replaces the old one whole; RetrainWith is the §6 form that adds the
// users' history to the pipeline's initial background.
//
// Pipelines built with WithAttacks cannot be retrained: re-training the
// caller's attack instances would mutate profiles the original Pipeline
// is concurrently reading. Build a new Pipeline with fresh attacks
// instead.
func (p *Pipeline) Retrain(background []Trace) (*Pipeline, error) {
	var o options
	for _, opt := range p.opts {
		opt(&o)
	}
	if o.attacks != nil {
		return nil, errors.New("mood: Retrain cannot rebuild a custom attack set (WithAttacks); build a new Pipeline instead")
	}
	return NewPipeline(background, p.opts...)
}

// RetrainWith retrains on the paper's growing H: the background the
// pipeline was built on (H₀) followed by history, merged per user.
// The retrained pipeline keeps the same H₀, so successive calls each
// pass the whole history so far and never count a past upload twice.
// It refuses WithAttacks pipelines, as Retrain does.
func (p *Pipeline) RetrainWith(history []Trace) (*Pipeline, error) {
	next, err := p.Retrain(trace.NewDataset("background", slices.Concat(p.initial, history)).Traces)
	if err != nil {
		return nil, err
	}
	next.initial = p.initial
	return next, nil
}

// Protect runs MooD's Algorithm 1 on one trace.
func (p *Pipeline) Protect(t Trace) (Result, error) { return p.engine.Protect(t) }

// ProtectDataset protects every user of d in parallel.
func (p *Pipeline) ProtectDataset(d Dataset) ([]Result, error) { return p.engine.ProtectDataset(d) }

// ProtectHybrid applies the HybridLPPM baseline [22] instead of MooD:
// best protecting single LPPM per user, no compositions, no splitting.
func (p *Pipeline) ProtectHybrid(t Trace) (Result, error) { return p.hybrid.Protect(t) }

// Publish assembles the protected dataset from results.
func (p *Pipeline) Publish(name string, results []Result) Dataset {
	return core.PublishDataset(name, results)
}

// DataLoss computes the paper's Eq. 7 over a batch of results.
func (p *Pipeline) DataLoss(results []Result) float64 { return core.DataLoss(results) }

// Classification buckets users by how they were protected
// (Definitions 4-6 of the paper).
type Classification = core.Classification

// Classify buckets a batch of results by protection kind.
func Classify(results []Result) Classification { return core.Classify(results) }

// ReIdentifies reports whether any trained attack links t to user (the
// protection predicate of Definitions 4-6) and names the first attack
// that does. It is the predicate's one implementation, asked trace by
// trace: the engine checks each candidate with it.
func (p *Pipeline) ReIdentifies(t Trace, user string) (bool, string) {
	return p.atks.ReIdentifies(t, user)
}

// ReIdent is one (trace, user) pair's outcome of the protection
// predicate (see ReIdentifiesBatch).
type ReIdent = attack.ReIdent

// ReIdentifiesBatch evaluates the protection predicate for many
// (trace, user) pairs: it is ReIdentifies fanned out in parallel, pair
// by pair. The service's re-audit pass judges the whole published
// dataset in one call.
func (p *Pipeline) ReIdentifiesBatch(ts []Trace, users []string) []ReIdent {
	return p.atks.ReIdentifiesBatch(ts, users)
}

// Mechanisms lists the LPPM portfolio in selection order.
func (p *Pipeline) Mechanisms() []Mechanism {
	out := make([]Mechanism, len(p.lppms))
	copy(out, p.lppms)
	return out
}

// Attacks lists the trained attack names.
func (p *Pipeline) Attacks() []string { return p.atks.Names() }
