package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mood"
	"mood/internal/attack"
	"mood/internal/lppm"
	"mood/internal/service"
	"mood/internal/trace"
)

// The real protection engine, assembled two ways.
//
// The untraced run wires mood.NewPipeline exactly as cmd/moodserver
// does: the pipeline is the Protector, and a retrainer that merges the
// initial background with the accumulated history rebuilds it.
//
// The traced run cannot go through mood.NewPipeline: the pipeline builds
// its LPPM portfolio and attack set internally, so there is no way to
// hand it wrapped ones. It assembles the same parts from the same
// public constructors (lppm.NewHMC / GeoI / TRL, attack.NewAP /
// NewPOIAttack / NewPIT, core.Engine) with the tracing wrappers around
// them. The two assemblies must stay the same program: the traced
// invocation checks that an untraced and a traced repetition of one
// seed publish the same dataset digest, which fails the day
// mood.NewPipeline's defaults move and this mirror does not.

// moodEngine is what a node needs from either assembly.
type moodEngine struct {
	protector service.Protector
	retrainer service.Retrainer
	// traced is the traced assembly (nil in the untraced run): it holds
	// what the Protector seam observed and the attack set now serving.
	traced *tracedRetrainer
}

// pipelineProtector / pipelineRetrainer are cmd/moodserver's adapters.
type pipelineProtector struct{ p *mood.Pipeline }

func (pp pipelineProtector) Protect(t mood.Trace) (mood.Result, error) { return pp.p.Protect(t) }

type pipelineRetrainer struct {
	base    *mood.Pipeline
	initial []mood.Trace
}

func (rt *pipelineRetrainer) Retrain(history []mood.Trace) (service.Protector, service.Auditor, error) {
	p, err := rt.base.Retrain(mergeBackground(rt.initial, history))
	if err != nil {
		return nil, nil, err
	}
	return pipelineProtector{p}, p, nil
}

// mergeBackground is the production retraining input: the initial
// background merged per user with everything uploaded since.
func mergeBackground(initial, history []trace.Trace) []trace.Trace {
	merged := make([]trace.Trace, 0, len(initial)+len(history))
	merged = append(merged, initial...)
	merged = append(merged, history...)
	return trace.NewDataset("background", merged).Traces
}

// newMoodEngine trains the engine on the background. tr == nil selects
// the untraced (mood.NewPipeline) assembly.
func newMoodEngine(background []trace.Trace, seed uint64, tr *tracer) (*moodEngine, error) {
	if tr == nil {
		p, err := mood.NewPipeline(background, mood.WithSeed(seed))
		if err != nil {
			return nil, fmt.Errorf("training the engine: %w", err)
		}
		return &moodEngine{
			protector: pipelineProtector{p},
			retrainer: &pipelineRetrainer{base: p, initial: background},
		}, nil
	}
	rt := &tracedRetrainer{
		tr:      tr,
		seed:    seed,
		initial: background,
		obs:     &protectObserver{owners: make(map[uint64]string), fineLabels: make(map[string]bool)},
	}
	p, _, err := rt.build(background, 0, noSpan)
	if err != nil {
		return nil, fmt.Errorf("training the engine: %w", err)
	}
	return &moodEngine{protector: p, retrainer: rt, traced: rt}, nil
}

// tracedRetrainer is the service.Retrainer of the traced run.
type tracedRetrainer struct {
	tr      *tracer
	seed    uint64
	initial []trace.Trace
	obs     *protectObserver
	audited atomic.Int64

	mu  sync.Mutex
	set attack.Set // the latest trained (unwrapped) attack set
}

func (rt *tracedRetrainer) serving() attack.Set {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.set
}

// build is mood.NewPipeline's assembly with the seams exposed: HMC over
// the background, the paper's portfolio order, the default attack set
// trained on the same background.
func (rt *tracedRetrainer) build(background []trace.Trace, op uint32, parent spanID) (*tracedProtector, *tracedAuditor, error) {
	hmc, err := lppm.NewHMC(0, background)
	if err != nil {
		return nil, nil, fmt.Errorf("building HMC: %w", err)
	}
	portfolio := []lppm.Mechanism{
		hmc,
		lppm.GeoI{Epsilon: lppm.DefaultEpsilon},
		lppm.TRL{Radius: lppm.DefaultTRLRadius, NumAssisted: 3},
	}
	atks := attack.Set{attack.NewAP(), attack.NewPOIAttack(), attack.NewPIT()}
	train := noSpan
	if op != 0 {
		train = rt.tr.begin(layerTrain, 0, op, parent)
	}
	err = attack.TrainAll(atks, background)
	if train != noSpan {
		rt.tr.end(train)
	}
	if err != nil {
		return nil, nil, err
	}
	rt.mu.Lock()
	rt.set = atks
	rt.mu.Unlock()
	return newTracedProtector(rt.tr, rt.obs, rt.seed, portfolio, atks),
		&tracedAuditor{tr: rt.tr, set: atks, audited: &rt.audited}, nil
}

func (rt *tracedRetrainer) Retrain(history []trace.Trace) (service.Protector, service.Auditor, error) {
	op, node := rt.tr.adminParent()
	id := noSpan
	if op != 0 {
		id = rt.tr.begin(layerRetrain, 0, op, node)
	}
	p, a, err := rt.build(mergeBackground(rt.initial, history), op, id)
	if id != noSpan {
		rt.tr.end(id)
	}
	if err != nil {
		return nil, nil, err
	}
	return p, a, nil
}
