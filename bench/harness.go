package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"mood/internal/clock"
	"mood/internal/mathx"
	"mood/internal/service"
)

// A run measures one workload as a sequence of repetitions. Each
// repetition boots a fresh system from one of the seed's generated input
// sets, runs a pinned number of ops closed-loop, checks the outcome and
// tears the system down; repetitions take the input sets in turn, in
// whole cycles, until the requested number of seconds has been measured.
// The work of a cycle is therefore identical on both sides of any
// comparison (same ops, same final state size, same allocation totals)
// while the number of cycles — not the work — adapts to the speed of the
// box.

// workload describes one of the benchmark's traffic mixes.
type workload struct {
	name string
	why  string
	// inputSets is how many input sets a run generates from its seed and
	// cycles its repetitions through: one, except for the real-engine
	// workloads' cities (see sizing).
	inputSets func(sz sizing) int
	// generate makes one input set, once per run. Its cost is part of
	// setup_s.
	generate func(seed uint64, sz sizing) (any, error)
	// setup boots the system under test for one repetition and brings it
	// to the first timed op: boot, WAL open, attack training, preload,
	// warm-up.
	setup func(e *env, in any, sz sizing) (*instance, error)
}

// sizing pins the work of one repetition. fullSizing is what
// BENCHMARK.json measures; the smoke test substitutes a ~1 % one.
type sizing struct {
	// ingest-echo-cluster / read-dataset-cluster
	echoUsers       int // distinct uploaders
	chunksPerBatch  int
	recordsPerChunk int
	echoWarm        int // untimed warm-up batches
	echoBatches     int // timed batches per repetition
	checkpointEvery int // ingest-echo-cluster: every node checkpoints before each timed batch that is a multiple of this
	preloadBatches  int // read workload: batches loaded before the scans
	pageLimit       int
	scansPerClient  int
	// ingest-mood-node / retrain-audit-node
	users         int
	ingestCities  int // cities per run of ingest-mood-node
	retrainCities int // cities per run of retrain-audit-node
	ingestWarm    int // untimed warm-up rounds
	ingestRounds  int // timed rounds per repetition
	historyRounds int // retrain workload: rounds ingested before the passes
	retrainPasses int // timed passes per repetition
}

// fullSizing was sized on the seed commit so that one repetition's
// timed phase lasts one to three seconds on the 2-core reference box and
// BENCHMARK.json's run_seconds hold at least three of them.
//
// What an op of the real engine costs depends on the city it was
// generated for: protecting a chunk is heavy-tailed over users (one in
// ten costs 5 to 15 times the median), so the mean over a city's 141
// users moves from one city to the next — inter-quartile distance over 48
// cities: 13 % of ops_per_s, 9 % of op_p50_ms, 5 % of alloc_kb_per_op on
// ingest-mood-node; 3 % on retrain-audit-node, whose passes cost what the
// history weighs. A run of ingest-mood-node therefore measures 16 cities
// of its seed, one repetition each, and reports the median over them:
// every seed is a different set of cities, and two seeds still agree on
// what the code costs (the median of 16 cities spreads by 4 % of
// ops_per_s, of 4 by 8 %). retrain-audit-node's cities differ little, so
// it takes two and spends its seconds on measuring each several times
// (see aggregate for what that buys).
var fullSizing = sizing{
	echoUsers:       600,
	chunksPerBatch:  100,
	recordsPerChunk: 50,
	echoWarm:        10,
	echoBatches:     120,
	checkpointEvery: 40,
	preloadBatches:  50,
	pageLimit:       200,
	scansPerClient:  2,
	users:           141,
	ingestCities:    16,
	retrainCities:   2,
	ingestWarm:      2,
	ingestRounds:    8,
	historyRounds:   3,
	retrainPasses:   40,
}

// instance is one booted system plus the ops to run against it.
type instance struct {
	// clients closed-loop clients perform ops timed ops between them.
	// Ops are handed out in order from one queue — a client takes the
	// next op when its previous one is answered — so the clients finish
	// together however the costly ops fall. (Dealing each client a fixed
	// share made ops_per_s of ingest-mood-node depend on how the seed
	// split the few costly users between the two: ±10 %.)
	clients, ops int
	// do performs timed op i as client k, including its correctness
	// check. op is the op's trace identifier (0 in the untraced run).
	do func(k, i int, op uint32) error
	// stall, when set, runs before every timed op whose index is a
	// positive multiple of stallEvery, with no op in flight: foreground
	// work of the system (a checkpoint) that every client waits for. The
	// wait is part of the latency of the ops that sat through it and of
	// the timed phase (see stallGate).
	stallEvery int
	stall      func() error
	// transports are the clients' traced transports (nil untraced).
	transports []*clientTransport
	// verify runs the workload's end-of-phase checks, untimed, and
	// returns the published dataset's digest. The accounting laws are
	// checked after every repetition; a full check adds what costs as
	// much as a repetition itself — the scan of a large dataset behind
	// the digest, the reboot from the log — and runs once per run.
	verify func(full bool) (datasetDigest, error)
	close  func() error
}

// repResult is what one repetition measured.
type repResult struct {
	Input        int       `json:"input"` // which of the run's input sets the repetition ran on
	SetupS       float64   `json:"setup_s"`
	TimedS       float64   `json:"timed_s"`
	Stalls       int       `json:"stalls"`         // foreground stalls (checkpoint rounds) inside the timed phase
	StallS       float64   `json:"stall_s"`        // part of timed_s: the stalls themselves
	StallAllocKB float64   `json:"stall_alloc_kb"` // what the stalls allocated; not in alloc_kb_per_op
	VerifyS      float64   `json:"verify_s"`       // end-of-phase checks and teardown, untimed
	Ops          int       `json:"ops"`
	Failed       int       `json:"failed"`
	OpsPerS      float64   `json:"ops_per_s"`
	AllocKB      float64   `json:"alloc_kb_per_op"`
	P50Ms        float64   `json:"op_p50_ms"`
	Digest       string    `json:"dataset_digest"`
	Errors       []string  `json:"errors,omitempty"`
	latencies    []float64 // ms, successful ops only, ascending
}

// opIDs hands out op identifiers for the traced run.
var opIDs atomic.Uint32

// runRep runs one repetition.
func runRep(w *workload, in runInput, sz sizing, clk clock.Clock, dir string, tr *tracer, full bool) (res repResult, e *env, err error) {
	e = &env{clk: clk, dir: dir, tr: tr}
	res.Input = in.index
	began := clk.Now()
	inst, err := w.setup(e, in.data, sz)
	if err != nil {
		return res, e, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer func() {
		if cerr := inst.close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s: teardown: %w", w.name, cerr)
		}
		res.VerifyS = clk.Since(began).Seconds() - res.SetupS - res.TimedS
	}()
	res.SetupS = clk.Since(began).Seconds()

	// The timed phase. Every client is one goroutine issuing ops back to
	// back: closed loop, one op in flight per client.
	clients := inst.clients
	lat := make([][]float64, clients)
	failed := make([]int, clients)
	errs := make([][]string, clients)
	var wg sync.WaitGroup
	var next atomic.Int64
	gate := newStallGate(inst.stallEvery, inst.stall, clk)
	start := make(chan struct{})
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lat[k] = make([]float64, 0, inst.ops)
			<-start
			for i := int(next.Add(1)) - 1; i < inst.ops; i = int(next.Add(1)) - 1 {
				var op uint32
				root := noSpan
				if tr != nil {
					op = opIDs.Add(1)
					root = tr.begin(layerClientOp, 0, op, noSpan)
					inst.transports[k].root.Store(int32(root))
					inst.transports[k].op.Store(op)
				}
				t0 := clk.Now()
				derr := gate.enter(i, tr, op, root)
				if derr == nil {
					derr = inst.do(k, i, op)
				}
				gate.leave()
				d := clk.Since(t0)
				if tr != nil {
					inst.transports[k].op.Store(0)
					tr.end(root)
				}
				if derr != nil {
					failed[k]++
					if len(errs[k]) < 3 {
						errs[k] = append(errs[k], derr.Error())
					}
				} else {
					lat[k] = append(lat[k], float64(d.Nanoseconds())/1e6)
				}
			}
		}(k)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.sc.timed.Store(true)
	t0 := clk.Now()
	close(start)
	wg.Wait()
	res.TimedS = clk.Since(t0).Seconds()
	e.sc.timed.Store(false)
	runtime.ReadMemStats(&after)

	res.Ops = inst.ops
	for k := 0; k < clients; k++ {
		res.Failed += failed[k]
		res.latencies = append(res.latencies, lat[k]...)
		res.Errors = append(res.Errors, errs[k]...)
	}
	if res.Ops > 0 && res.TimedS > 0 {
		res.OpsPerS = float64(res.Ops-res.Failed) / res.TimedS
		// The stalls' own allocations are reported beside the ops', not in
		// them: a checkpoint marshals its snapshot through encoding/json's
		// pooled buffer, which is regrown from nothing or reused depending on
		// when the collector last emptied the pool — ±4 % of alloc_kb_per_op
		// between repetitions of identical work.
		res.AllocKB = float64(after.TotalAlloc-before.TotalAlloc-gate.allocBytes) / 1024 / float64(res.Ops)
		res.Stalls = gate.stalls
		res.StallS = gate.seconds
		res.StallAllocKB = float64(gate.allocBytes) / 1024
	}
	sort.Float64s(res.latencies)
	res.P50Ms, _ = percentile(res.latencies, 0.50)

	digest, verr := inst.verify(full)
	if digest != (datasetDigest{}) {
		res.Digest = digest.String()
	}
	if verr != nil {
		res.Errors = append(res.Errors, "check: "+verr.Error())
		err = fmt.Errorf("%s: %w", w.name, verr)
	}
	return res, e, err
}

// stallGate serialises a repetition's foreground stalls with its ops. An
// op whose index is a positive multiple of every first waits until every
// earlier op has been answered, then runs the stall; ops drawn after it
// wait until the stall is over. The stall thus always meets the same
// state — exactly the ops before it, none in flight — so what it writes
// is the same in every repetition (what it allocates is not, which is why
// it is counted apart: see runRep). The clients took their
// op's start time before entering: like a request that arrives while a
// server checkpoints, the op waits for the stall and the wait is part of
// its latency.
type stallGate struct {
	every int
	stall func() error
	clk   clock.Clock

	mu       sync.Mutex
	cond     *sync.Cond
	left     int // ops answered
	stalls   int // stalls completed
	stallErr error
	// What the stalls themselves cost, for the repetition's report.
	seconds    float64
	allocBytes uint64
}

func newStallGate(every int, stall func() error, clk clock.Clock) *stallGate {
	g := &stallGate{every: every, stall: stall, clk: clk}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// enter blocks op i until every stall due before it has run. In the
// traced run the wait is recorded as a store.stall span under the op.
func (g *stallGate) enter(i int, tr *tracer, op uint32, root spanID) error {
	if g.every <= 0 || i < g.every {
		return nil
	}
	id := noSpan
	if tr != nil {
		id = tr.begin(layerStall, 0, op, root)
	}
	due := i / g.every // stalls that must be over before op i starts
	g.mu.Lock()
	if i%g.every == 0 {
		for g.left < i {
			g.cond.Wait()
		}
		g.mu.Unlock()
		// Nothing else runs now, so the allocation delta is the stall's own.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := g.clk.Now()
		err := g.stall()
		took := g.clk.Since(t0).Seconds()
		runtime.ReadMemStats(&after)
		g.mu.Lock()
		g.seconds += took
		g.allocBytes += after.TotalAlloc - before.TotalAlloc
		if err != nil && g.stallErr == nil {
			g.stallErr = fmt.Errorf("stall before op %d: %w", i, err)
		}
		g.stalls = due
		g.cond.Broadcast()
	}
	for g.stalls < due {
		g.cond.Wait()
	}
	err := g.stallErr
	g.mu.Unlock()
	if tr != nil {
		tr.end(id)
	}
	return err
}

// leave records that an op has been answered.
func (g *stallGate) leave() {
	if g.every <= 0 {
		return
	}
	g.mu.Lock()
	g.left++
	g.cond.Broadcast()
	g.mu.Unlock()
}

// runSummary aggregates the repetitions of one run.
type runSummary struct {
	GenS      float64     `json:"gen_s"`
	Reps      []repResult `json:"reps"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Digest    string      `json:"dataset_digest"`
	Problems  []string    `json:"problems,omitempty"`

	OpsPerS float64 `json:"ops_per_s"`
	P50Ms   float64 `json:"op_p50_ms"`
	P90Ms   float64 `json:"op_p90_ms"` // diagnostic over the pooled samples; 0 when they cannot support it
	P99Ms   float64 `json:"op_p99_ms"` // likewise
	AllocKB float64 `json:"alloc_kb_per_op"`
	SetupS  float64 `json:"setup_s"`
	Samples int     `json:"latency_samples"`
}

// minReps is the fewest repetitions behind a run's figures.
const minReps = 3

// runInput is one of the input sets a run cycles its repetitions through.
type runInput struct {
	index int
	data  any
}

// generateInputs makes the run's input sets: set j from a seed of its
// own, derived from the run's.
func generateInputs(w *workload, seed uint64, sz sizing) ([]runInput, error) {
	ins := make([]runInput, w.inputSets(sz))
	for j := range ins {
		data, err := w.generate(mathx.DeriveSeed(seed, "bench-input", strconv.Itoa(j)), sz)
		if err != nil {
			return nil, fmt.Errorf("%s: generating input set %d: %w", w.name, j, err)
		}
		ins[j] = runInput{index: j, data: data}
	}
	return ins, nil
}

// runWorkload measures the workload with tracing off, in whole cycles
// through the seed's input sets, until the given number of seconds and
// at least minReps repetitions have been measured.
func runWorkload(w *workload, seed uint64, seconds float64, sz sizing, clk clock.Clock, scratch string) (runSummary, error) {
	var sum runSummary
	began := clk.Now()
	ins, err := generateInputs(w, seed, sz)
	if err != nil {
		return sum, err
	}
	sum.GenS = clk.Since(began).Seconds()

	var measured float64
	for rep := 0; rep%len(ins) != 0 || rep < minReps || measured < seconds; rep++ {
		dir := filepath.Join(scratch, w.name+"-rep"+strconv.Itoa(rep))
		res, _, rerr := runRep(w, ins[rep%len(ins)], sz, clk, dir, nil, rep == 0)
		removeScratch(dir)
		sum.Reps = append(sum.Reps, res)
		if rerr != nil {
			sum.Problems = append(sum.Problems, rerr.Error())
			break
		}
		measured += res.TimedS
	}
	sum.aggregate()
	if len(sum.Problems) > 0 {
		return sum, errors.New(sum.Problems[0])
	}
	return sum, nil
}

// aggregate folds the repetitions into the run's figures, in two steps.
//
// Within an input set every repetition does identical work, and whatever
// else runs on a shared box only ever slows one down: minutes in which a
// neighbour takes a third of the processors are the rule on the reference
// box, not the exception. A timing of an input set is therefore its
// quiet quartile over the set's repetitions (see quietQuartile) — what
// the code costs when it has the box to itself — not their median, which
// needs more than half of the repetitions undisturbed. Across input sets
// (the cities of a real-engine workload differ in what they cost) the
// run's figure is the median. Where an input set is measured once per
// run the first step is the identity.
//
// alloc_kb_per_op does not feel the box and is the median on both steps.
// The latency tail (p90, p99) is a diagnostic over the pooled samples of
// all repetitions, not a gated figure: see the README for why.
func (s *runSummary) aggregate() {
	type figures struct{ rates, allocs, setups, p50s []float64 }
	byInput := make(map[int]*figures)
	var inputs []int
	var pooled []float64
	for _, r := range s.Reps {
		s.Attempted += r.Ops
		s.Failed += r.Failed
		f := byInput[r.Input]
		if f == nil {
			f = &figures{}
			byInput[r.Input] = f
			inputs = append(inputs, r.Input)
		}
		f.rates = append(f.rates, r.OpsPerS)
		f.allocs = append(f.allocs, r.AllocKB)
		f.setups = append(f.setups, r.SetupS)
		f.p50s = append(f.p50s, r.P50Ms)
		pooled = append(pooled, r.latencies...)
		for _, e := range r.Errors {
			if len(s.Problems) < 8 {
				s.Problems = append(s.Problems, e)
			}
		}
	}
	// The run's digest is that of its first repetition (the one with the
	// full check); repetitions on one input set must publish one dataset.
	first := make(map[int]string)
	for i, r := range s.Reps {
		if i == 0 {
			s.Digest = r.Digest
		}
		if r.Digest == "" {
			continue
		}
		if d, ok := first[r.Input]; ok && d != r.Digest {
			s.Problems = append(s.Problems, fmt.Sprintf(
				"dataset_digest differs between repetitions on one input set: %s vs %s", d, r.Digest))
			break
		}
		first[r.Input] = r.Digest
	}
	var rates, allocs, setups, p50s []float64
	for _, in := range inputs {
		f := byInput[in]
		rates = append(rates, quietQuartile(f.rates, true))
		allocs = append(allocs, median(f.allocs))
		setups = append(setups, quietQuartile(f.setups, false))
		p50s = append(p50s, quietQuartile(f.p50s, false))
	}
	s.OpsPerS = median(rates)
	s.AllocKB = median(allocs)
	s.SetupS = s.GenS + median(setups)
	s.P50Ms = median(p50s)
	s.Samples = len(pooled)
	sort.Float64s(pooled)
	s.P90Ms, _ = percentile(pooled, 0.90)
	s.P99Ms, _ = percentile(pooled, 0.99)
}

// ---------------------------------------------------------------------------
// Helpers shared by the workloads.

// drain has the clients perform untimed ops 0..n-1 between them, handed
// out in order from one queue like the timed ones, and stops at the
// first failure.
func drain(clients, n int, do func(k, i int) error) error {
	var wg sync.WaitGroup
	var next atomic.Int64
	errs := make([]error, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if err := do(k, i); err != nil {
					errs[k] = fmt.Errorf("op %d: %w", i, err)
					next.Store(int64(n))
					return
				}
			}
		}(k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// opCounters are the client-side chunk tallies of a repetition.
type opCounters struct {
	chunks  atomic.Int64
	shed    atomic.Int64
	replays atomic.Int64
}

func (c *opCounters) add(o *opCounters) {
	c.chunks.Add(o.chunks.Load())
	c.shed.Add(o.shed.Load())
	c.replays.Add(o.replays.Load())
}

// chunkFailure says why one result line of a batch fails its op: a
// chunk must come back 200, freshly executed, with its outcome. A shed
// (503), a replay from the idempotency window or any error status is a
// failure, and is tallied.
func chunkFailure(res service.BatchResult, oc *opCounters) error {
	oc.chunks.Add(1)
	switch {
	case res.Replay:
		oc.replays.Add(1)
		return fmt.Errorf("chunk %d answered from the idempotency window", res.Index)
	case res.Status == 503:
		oc.shed.Add(1)
		return fmt.Errorf("chunk %d refused: %s", res.Index, res.Code)
	case res.Status != 200 || res.Result == nil:
		return fmt.Errorf("chunk %d: status %d %s %s", res.Index, res.Status, res.Code, res.Error)
	}
	return nil
}

// uploadBatch sends one keyed batch and checks every result line; the
// first failing chunk fails the op.
func uploadBatch(c *service.Client, chunks []service.BatchChunk, oc *opCounters) error {
	var bad error
	n := 0
	err := c.UploadBatchStream(chunks, func(res service.BatchResult) error {
		n++
		if cerr := chunkFailure(res, oc); cerr != nil && bad == nil {
			bad = cerr
		}
		return nil
	})
	if err != nil {
		return err
	}
	if bad == nil && n != len(chunks) {
		bad = fmt.Errorf("%d results for %d chunks", n, len(chunks))
	}
	return bad
}

// scanDataset pages through the whole published dataset, checking that
// pages arrive sorted by pseudonym across page boundaries, and digests
// it. visit, when set, sees every trace.
func scanDataset(c *service.Client, limit int, visit func(t service.ClientDatasetPage)) (datasetDigest, error) {
	var d datasetDigest
	last := ""
	for page, err := range c.DatasetPages(service.DatasetQuery{Limit: limit}) {
		if err != nil {
			return d, err
		}
		for _, t := range page.Traces {
			if t.User < last {
				return d, fmt.Errorf("dataset not sorted: %q after %q", t.User, last)
			}
			last = t.User
			d.add(t)
		}
		if visit != nil {
			visit(page)
		}
	}
	return d, nil
}

// checkConservation holds the accounting law every workload must end
// on: each record received was either published or rejected.
func checkConservation(st service.ServerStats) error {
	if st.RecordsIn != st.RecordsPublished+st.RecordsRejected {
		return fmt.Errorf("conservation violated: records_in %d != published %d + rejected %d",
			st.RecordsIn, st.RecordsPublished, st.RecordsRejected)
	}
	return nil
}
