package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"

	"mood/internal/cluster"
	"mood/internal/eval"
	"mood/internal/geo"
	"mood/internal/loadgen"
	"mood/internal/mathx"
	"mood/internal/service"
	"mood/internal/synth"
	"mood/internal/trace"
)

// workloads lists the benchmark's traffic mixes in BENCHMARK.json
// order. Each `why` is the reason the workload exists; the README says
// which layer metric should move which end-to-end metric on which one.
var workloads = []*workload{
	{
		name:      "ingest-echo-cluster",
		why:       "pass-through engine behind router and 3 WAL nodes: service, store and cluster do all the work; engine changes must not move it",
		inputSets: func(sizing) int { return 1 },
		generate:  genEcho,
		setup:     setupIngestEcho,
	},
	{
		name:      "ingest-mood-node",
		why:       "real MooD engine on one WAL node, 141 users: composition search, LPPMs and scalar attack scans dominate; WAL or router work must not move it",
		inputSets: func(sz sizing) int { return sz.ingestCities },
		generate:  genIngestPopulation,
		setup:     setupIngestMood,
	},
	{
		name:      "read-dataset-cluster",
		why:       "cursor-paged dataset scans through the router's scatter-gather merge: reads beside the first workload's writes, so a gain for one that costs the other shows",
		inputSets: func(sizing) int { return 1 },
		generate:  genEcho,
		setup:     setupReadDataset,
	},
	{
		name:      "retrain-audit-node",
		why:       "retrain + hot-swap + batched re-audit passes: attack training and batch kernels with no LPPM search, the batch twin of the scalar ingest path",
		inputSets: func(sz sizing) int { return sz.retrainCities },
		generate:  genRetrainPopulation,
		setup:     setupRetrainAudit,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Echo-engine inputs (ingest-echo-cluster, read-dataset-cluster).

// echoInputs are keyed NDJSON batches, one user per batch (the router's
// routing key), every chunk with timestamps of its own so each becomes
// its own published fragment.
type echoInputs struct {
	seed    uint64
	batches [][]service.BatchChunk
	digests []datasetDigest // digests[i] covers batches[0..i]
}

func genEcho(seed uint64, sz sizing) (any, error) {
	n := sz.echoWarm + sz.echoBatches
	if sz.preloadBatches > n {
		n = sz.preloadBatches
	}
	in := &echoInputs{seed: seed, batches: make([][]service.BatchChunk, n), digests: make([]datasetDigest, n)}
	byOwner, err := usersByOwner(sz.echoUsers)
	if err != nil {
		return nil, err
	}
	center := geo.Point{Lat: 46.2044, Lon: 6.1432}
	var running datasetDigest
	for b := range in.batches {
		// Batch b goes to a user of node b mod 3, so the two batches in
		// flight are on different nodes. Two batches on one node take turns
		// on its upload queue and WAL and each takes about twice as long;
		// with users drawn regardless of owner that put a second mode at
		// 2-3x the first under about half of the ops and left op_p50_ms in
		// the valley between the two (12 % spread between runs).
		pool := byOwner[b%clusterSize]
		user := pool[b/clusterSize%len(pool)]
		rng := mathx.DeriveRand(seed, "bench-echo", strconv.Itoa(b))
		chunks := make([]service.BatchChunk, sz.chunksPerBatch)
		for c := range chunks {
			// One hour per chunk, globally numbered: no two chunks of a
			// user (or of anyone) share a timestamp.
			ts := synth.Epoch + int64(b*sz.chunksPerBatch+c)*3600
			recs := make([]trace.Record, sz.recordsPerChunk)
			p := geo.Offset(center, rng.NormFloat64()*4000, rng.NormFloat64()*4000)
			for r := range recs {
				p = geo.Offset(p, rng.NormFloat64()*60, rng.NormFloat64()*60)
				recs[r] = trace.At(p, ts+int64(r)*60)
			}
			chunks[c] = service.BatchChunk{User: user, Records: recs, Key: "b" + strconv.Itoa(b) + "c" + strconv.Itoa(c)}
			running.add(trace.Trace{Records: recs})
		}
		in.batches[b] = chunks
		in.digests[b] = running
	}
	return in, nil
}

// usersByOwner sorts users u0..u(n-1) by the cluster node that owns
// them on the full ring.
func usersByOwner(n int) ([clusterSize][]string, error) {
	var out [clusterSize][]string
	nodes := make([]cluster.Node, clusterSize)
	index := make(map[string]int, clusterSize)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: nodeID(i), URL: "http://127.0.0.1:0"}
		index[nodes[i].ID] = i
	}
	ring, err := cluster.NewRing(nodes)
	if err != nil {
		return out, err
	}
	for u := 0; u < n; u++ {
		user := "u" + strconv.Itoa(u)
		owner, _ := ring.Owner(user)
		out[index[owner.ID]] = append(out[index[owner.ID]], user)
	}
	for i, pool := range out {
		if len(pool) == 0 {
			return out, fmt.Errorf("none of %d users is owned by node %s", n, nodeID(i))
		}
	}
	return out, nil
}

// echoProtector builds the pass-through engine for a node.
func echoProtector(seed uint64) func() service.Protector {
	return func() service.Protector { return loadgen.EchoProtector{Seed: seed} }
}

// clusterClients opens one client per closed-loop worker against the
// router.
func clusterClients(e *env, url string) ([]*service.Client, []*clientTransport, func()) {
	n := numClients()
	cs := make([]*service.Client, n)
	var cts []*clientTransport
	var idles []func()
	for k := range cs {
		c, ct, idle := newClient(e, url)
		cs[k] = c
		idles = append(idles, idle)
		if ct != nil {
			cts = append(cts, ct)
		}
	}
	return cs, cts, func() {
		for _, f := range idles {
			f()
		}
	}
}

// loadBatches uploads batches[lo:hi) untimed.
func loadBatches(cs []*service.Client, batches [][]service.BatchChunk, lo, hi int) error {
	var oc opCounters
	return drain(len(cs), hi-lo, func(k, i int) error {
		return uploadBatch(cs[k], batches[lo+i], &oc)
	})
}

// verifyCluster holds the cluster-side accounting laws after a phase:
// the conservation law over the stats the router aggregates, exactly
// the uploaded fragments published, zero misroutes.
func verifyCluster(cs *clusterSUT, c *service.Client, want datasetDigest) error {
	st, err := c.Stats()
	if err != nil {
		return fmt.Errorf("cluster stats: %w", err)
	}
	if err := checkConservation(st); err != nil {
		return err
	}
	if st.PublishedTraces != want.fragments {
		return fmt.Errorf("published %d fragments, uploaded %d", st.PublishedTraces, want.fragments)
	}
	if n := cs.misroutes(); n != 0 {
		return fmt.Errorf("misroute tripwire fired %d time(s)", n)
	}
	return nil
}

// verifyRecovery reboots every node from its log and requires the
// nodes to come back with exactly the stats they acknowledged and,
// between them, exactly the dataset want: every acked chunk, nothing
// else.
func verifyRecovery(e *env, nodes []*node, want datasetDigest) error {
	var got datasetDigest
	for _, n := range nodes {
		c, _, idle := newClient(e, n.url)
		stBefore, err := c.Stats()
		idle()
		if err != nil {
			return fmt.Errorf("node %q before reboot: %w", n.id, err)
		}
		if _, err := n.reboot(); err != nil {
			return fmt.Errorf("rebooting node %q: %w", n.id, err)
		}
		c, _, idle = newClient(e, n.url)
		after, derr := scanDataset(c, 1000, nil)
		stAfter, serr := c.Stats()
		idle()
		if err := errors.Join(derr, serr); err != nil {
			return fmt.Errorf("node %q after reboot: %w", n.id, err)
		}
		stBefore.Retrains, stAfter.Retrains = 0, 0 // epoch records are best-effort by contract
		if stAfter != stBefore {
			return fmt.Errorf("node %q stats changed across reboot: %+v, was %+v", n.id, stAfter, stBefore)
		}
		got.sum += after.sum
		got.fragments += after.fragments
		got.records += after.records
	}
	if got != want {
		return fmt.Errorf("acked data lost across reboot: recovered dataset %s, acked %s", got, want)
	}
	return nil
}

// ---------------------------------------------------------------------------
// ingest-echo-cluster

func setupIngestEcho(e *env, inAny any, sz sizing) (*instance, error) {
	in := inAny.(*echoInputs)
	cs, err := bootCluster(e, echoProtector(in.seed))
	if err != nil {
		return nil, err
	}
	clients, cts, idle := clusterClients(e, cs.url)
	if err := loadBatches(clients, in.batches, 0, sz.echoWarm); err != nil {
		cs.close() //nolint:errcheck // already failing
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	total := sz.echoWarm + sz.echoBatches
	var oc opCounters
	inst := &instance{
		clients:    len(clients),
		ops:        sz.echoBatches,
		transports: cts,
		// Compaction is foreground work here: every node checkpoints at
		// fixed op indices, and the ops that arrive meanwhile wait for it.
		stallEvery: sz.checkpointEvery,
		stall:      cs.checkpointAll,
		do: func(k, i int, op uint32) error {
			batch := in.batches[sz.echoWarm+i]
			if e.tr != nil {
				for _, ch := range batch {
					e.tr.registerChunk(ch.User, ch.Records[0].TS, op)
				}
			}
			return uploadBatch(clients[k], batch, &oc)
		},
		verify: func(full bool) (datasetDigest, error) {
			e.counts.add(&oc)
			want := in.digests[total-1]
			if err := verifyCluster(cs, clients[0], want); err != nil || !full {
				return datasetDigest{}, err
			}
			// The nodes' own datasets, read back after the reboot, are the
			// published dataset: digesting them checks the uploads and the
			// recovery in one scan.
			cs.stopFront()
			return want, verifyRecovery(e, cs.nodes, want)
		},
		close: func() error {
			idle()
			return cs.close()
		},
	}
	return inst, nil
}

// ---------------------------------------------------------------------------
// read-dataset-cluster

// scanState is one client's position in its current full scan.
type scanState struct {
	cursor string
	last   string
	digest datasetDigest
}

func setupReadDataset(e *env, inAny any, sz sizing) (*instance, error) {
	in := inAny.(*echoInputs)
	cs, err := bootCluster(e, echoProtector(in.seed))
	if err != nil {
		return nil, err
	}
	clients, cts, idle := clusterClients(e, cs.url)
	fail := func(err error) (*instance, error) {
		idle()
		cs.close() //nolint:errcheck // already failing
		return nil, err
	}
	if err := loadBatches(clients, in.batches, 0, sz.preloadBatches); err != nil {
		return fail(fmt.Errorf("preload: %w", err))
	}
	// Compacting the preloaded log is part of bringing a read replica up:
	// this checkpoint is paid in setup_s (ingest-echo-cluster pays for its
	// own inside the timed phase).
	if err := cs.checkpointAll(); err != nil {
		return fail(err)
	}
	want := in.digests[sz.preloadBatches-1]

	// One untimed scan warms the nodes' assembled-dataset cache and
	// counts the pages of a full scan (fixed for a fixed corpus).
	pages := 0
	if got, err := scanDataset(clients[0], sz.pageLimit, func(service.ClientDatasetPage) { pages++ }); err != nil {
		return fail(fmt.Errorf("warm-up scan: %w", err))
	} else if got != want {
		return fail(fmt.Errorf("warm-up scan digest %s, preloaded %s", got, want))
	}

	states := make([]scanState, len(clients))
	inst := &instance{
		clients:    len(clients),
		ops:        pages * sz.scansPerClient * len(clients),
		transports: cts,
		do: func(k, i int, op uint32) error {
			st := &states[k]
			page, err := clients[k].DatasetPageV2(service.DatasetQuery{Cursor: st.cursor, Limit: sz.pageLimit})
			if err != nil {
				return err
			}
			if len(page.Traces) == 0 {
				return errors.New("empty dataset page")
			}
			for _, t := range page.Traces {
				if t.User < st.last {
					return fmt.Errorf("page not sorted: %q after %q", t.User, st.last)
				}
				st.last = t.User
				st.digest.add(t)
			}
			st.cursor = page.NextCursor
			if st.cursor != "" {
				return nil
			}
			// End of a full scan: exactly the preloaded fragments, each
			// once (the digest is a multiset sum, so a duplicate or a
			// missing fragment cannot hide).
			got := st.digest
			*st = scanState{}
			if got != want {
				return fmt.Errorf("full scan digest %s, preloaded %s", got, want)
			}
			return nil
		},
		verify: func(full bool) (datasetDigest, error) {
			// Every completed timed scan already matched the preloaded
			// digest, so the digest stands without one more scan.
			return want, verifyCluster(cs, clients[0], want)
		},
		close: func() error {
			idle()
			return cs.close()
		},
	}
	return inst, nil
}

// ---------------------------------------------------------------------------
// Real-engine inputs (ingest-mood-node, retrain-audit-node).

// population is a drifting synthetic city carved like loadgen.Build:
// the first half of the period is the attacker-side background the
// engine trains on, the second half is cut into one-day publication
// rounds. The input set's seed generates the city, seeds the engine that
// protects it and draws the upload order within a round — and with it
// which chunks meet on the two clients.
type population struct {
	seed       uint64
	background []trace.Trace
	rounds     [][]trace.Trace // rounds[r]: the chunks uploaded in round r, by user
	rank       map[string]int  // user → position in the seed's permutation of the users
}

func genIngestPopulation(seed uint64, sz sizing) (any, error) {
	return genPopulation(seed, sz.users, sz.ingestWarm+sz.ingestRounds)
}

func genRetrainPopulation(seed uint64, sz sizing) (any, error) {
	return genPopulation(seed, sz.users, sz.historyRounds)
}

func genPopulation(seed uint64, users, rounds int) (*population, error) {
	sc := synth.MDCLike(synth.ScalePaper, seed)
	sc.NumUsers = users
	sc.Days = 2 * rounds
	full, err := synth.Generate(sc)
	if err != nil {
		return nil, err
	}
	bg, test := full.SplitTrainTest(0.5, 20)
	rs, err := eval.SplitRounds(test, rounds)
	if err != nil {
		return nil, err
	}
	if len(rs) != rounds {
		return nil, fmt.Errorf("population has %d active rounds, want %d", len(rs), rounds)
	}
	pop := &population{seed: seed, background: bg.Traces, rank: make(map[string]int)}
	for _, r := range rs {
		pop.rounds = append(pop.rounds, r.Data.Traces)
	}
	names := test.Users() // sorted
	for pos, i := range mathx.DeriveRand(seed, "bench-upload-order").Perm(len(names)) {
		pop.rank[names[i]] = pos
	}
	return pop, nil
}

// moodNode boots the single real-engine node of a repetition, with the
// production retrainer wired so history accumulates as in deployment.
func moodNode(e *env, pop *population) (*node, *moodEngine, error) {
	eng, err := newMoodEngine(pop.background, pop.seed, e.tr)
	if err != nil {
		return nil, nil, err
	}
	n := &node{
		e:    e,
		dir:  filepath.Join(e.dir, "node"),
		prot: func() service.Protector { return eng.protector },
		opts: func() []service.Option {
			return []service.Option{service.WithRetrainer(eng.retrainer, 0)}
		},
	}
	if err := n.boot(); err != nil {
		return nil, nil, err
	}
	return n, eng, nil
}

// chunkRef names one upload: the round and the index of the user's
// chunk within it.
type chunkRef struct{ round, idx int }

// uploadOrder lists the uploads of rounds [lo, hi) in the order they
// are handed out: round by round, the users of a round in the order of
// the seed's permutation. A user's chunks are a whole round apart, so
// two of them are never in flight together.
func uploadOrder(pop *population, lo, hi int) []chunkRef {
	var out []chunkRef
	for r := lo; r < hi; r++ {
		round := pop.rounds[r]
		from := len(out)
		for i := range round {
			out = append(out, chunkRef{r, i})
		}
		this := out[from:]
		sort.Slice(this, func(a, b int) bool { return pop.rank[round[this[a].idx].User] < pop.rank[round[this[b].idx].User] })
	}
	return out
}

// uploadChunk uploads one user's one-day chunk as a keyed batch of one.
func uploadChunk(e *env, c *service.Client, pop *population, ref chunkRef, op uint32, oc *opCounters) error {
	t := pop.rounds[ref.round][ref.idx]
	if e.tr != nil && op != 0 {
		e.tr.registerChunk(t.User, t.Start(), op)
	}
	return uploadBatch(c, []service.BatchChunk{{
		User: t.User, Records: t.Records, Key: "r" + strconv.Itoa(ref.round),
	}}, oc)
}

// ingestRounds uploads rounds [lo, hi) untimed.
func ingestRounds(e *env, cs []*service.Client, pop *population, lo, hi int) error {
	order := uploadOrder(pop, lo, hi)
	var oc opCounters
	return drain(len(cs), len(order), func(k, i int) error {
		return uploadChunk(e, cs[k], pop, order[i], 0, &oc)
	})
}

// verifyNode holds the single-node laws: conservation and, on a full
// check, the scan behind the digest and — in the traced run, where the
// Protector seam recorded who owns which fragment — the paper's
// invariant: no fragment visible in /v2/dataset is re-identified by the
// attack set of the engine epoch now serving.
func verifyNode(c *service.Client, eng *moodEngine, full bool) (datasetDigest, error) {
	st, err := c.Stats()
	if err != nil {
		return datasetDigest{}, fmt.Errorf("stats: %w", err)
	}
	if err := checkConservation(st); err != nil || !full {
		return datasetDigest{}, err
	}
	var published []trace.Trace
	digest, err := scanDataset(c, 1000, func(p service.ClientDatasetPage) {
		if eng.traced != nil {
			published = append(published, p.Traces...)
		}
	})
	if err != nil {
		return digest, fmt.Errorf("dataset scan: %w", err)
	}
	// The dataset merges fragments that share a pseudonym (the engine
	// derives a fine-grained piece's pseudonym from the user and the
	// piece index, so it recurs across a user's uploads): it can hold
	// fewer traces than fragments were published, never more.
	if digest.fragments > st.PublishedTraces {
		return digest, fmt.Errorf("dataset holds %d traces, stats say %d fragments", digest.fragments, st.PublishedTraces)
	}
	if eng.traced != nil {
		if err := checkNotReidentified(eng.traced, published); err != nil {
			return digest, err
		}
	}
	return digest, nil
}

// checkNotReidentified audits every served trace that is exactly one
// engine piece against its true owner. A served trace that merges
// several pieces under one recurring fine-grained pseudonym has no
// single piece to look up and is not judged.
func checkNotReidentified(rt *tracedRetrainer, published []trace.Trace) error {
	var owners []string
	var anon, served []trace.Trace
	rt.obs.mu.Lock()
	for _, t := range published {
		owner, ok := rt.obs.owners[fragmentHash(t.Records)]
		switch {
		case ok:
			owners = append(owners, owner)
			anon = append(anon, t.WithUser(""))
			served = append(served, t)
		case rt.obs.fineLabels[t.User]:
			// several pieces merged under one pseudonym: not judged
		default:
			rt.obs.mu.Unlock()
			return fmt.Errorf("published fragment %q was never seen leaving the engine", t.User)
		}
	}
	rt.obs.mu.Unlock()
	for i, r := range rt.serving().ReIdentifiesBatch(anon, owners) {
		if r.Hit {
			return fmt.Errorf("published fragment %q is re-identified as %q by %s", served[i].User, owners[i], r.Attack)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// ingest-mood-node

func setupIngestMood(e *env, inAny any, sz sizing) (*instance, error) {
	pop := inAny.(*population)
	n, eng, err := moodNode(e, pop)
	if err != nil {
		return nil, err
	}
	clients, cts, idle := clusterClients(e, n.url)
	if err := ingestRounds(e, clients, pop, 0, sz.ingestWarm); err != nil {
		idle()
		n.stop() //nolint:errcheck // already failing
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	order := uploadOrder(pop, sz.ingestWarm, sz.ingestWarm+sz.ingestRounds)
	var oc opCounters
	inst := &instance{
		clients:    len(clients),
		ops:        len(order),
		transports: cts,
		do: func(k, i int, op uint32) error {
			return uploadChunk(e, clients[k], pop, order[i], op, &oc)
		},
		verify: func(full bool) (datasetDigest, error) {
			e.counts.add(&oc)
			e.engine = eng
			digest, err := verifyNode(clients[0], eng, full)
			if err != nil || !full {
				return digest, err
			}
			return digest, verifyRecovery(e, []*node{n}, digest)
		},
		close: func() error {
			idle()
			return n.stop()
		},
	}
	return inst, nil
}

// ---------------------------------------------------------------------------
// retrain-audit-node

func setupRetrainAudit(e *env, inAny any, sz sizing) (*instance, error) {
	pop := inAny.(*population)
	n, eng, err := moodNode(e, pop)
	if err != nil {
		return nil, err
	}
	// One client: passes are single-flight (a concurrent one answers
	// 409), the parallelism is inside the pass.
	c, ct, idle := newClient(e, n.url)
	fail := func(err error) (*instance, error) {
		idle()
		n.stop() //nolint:errcheck // already failing
		return nil, err
	}
	loaders, _, idleLoaders := clusterClients(e, n.url)
	err = ingestRounds(e, loaders, pop, 0, sz.historyRounds)
	idleLoaders()
	if err != nil {
		return fail(fmt.Errorf("ingesting history: %w", err))
	}
	// One untimed pass settles the quarantine: it retrains on exactly
	// the history every timed pass will see, so whatever that attack
	// set condemns is gone before the clock starts.
	first, err := c.Retrain()
	if err != nil {
		return fail(fmt.Errorf("settling pass: %w", err))
	}
	settled, err := c.Retrain()
	if err != nil {
		return fail(fmt.Errorf("settling pass: %w", err))
	}
	if settled.Quarantined != 0 {
		return fail(fmt.Errorf("quarantine did not settle: second pass pulled %d more", settled.Quarantined))
	}
	wantAudited := settled.Audited
	uploaders := make(map[string]bool)
	for _, round := range pop.rounds[:sz.historyRounds] {
		for _, t := range round {
			uploaders[t.User] = true
		}
	}
	wantUsers := len(uploaders)
	if wantAudited == 0 || wantAudited != first.Audited-first.Quarantined {
		return fail(fmt.Errorf("audited %d after a pass that audited %d and pulled %d",
			wantAudited, first.Audited, first.Quarantined))
	}

	var cts []*clientTransport
	if ct != nil {
		cts = []*clientTransport{ct}
	}
	inst := &instance{
		clients:    1,
		ops:        sz.retrainPasses,
		transports: cts,
		do: func(k, i int, op uint32) error {
			if e.tr != nil {
				e.tr.setAdminOp(op)
				defer e.tr.setAdminOp(0)
			}
			rep, err := c.Retrain()
			if err != nil {
				return err
			}
			if rep.Audited != wantAudited || rep.Quarantined != 0 || rep.HistoryUsers != wantUsers {
				return fmt.Errorf("retrain report %+v: want audited %d, quarantined 0, history_users %d",
					rep, wantAudited, wantUsers)
			}
			return nil
		},
		verify: func(full bool) (datasetDigest, error) {
			e.engine = eng
			return verifyNode(c, eng, full)
		},
		close: func() error {
			idle()
			return n.stop()
		},
	}
	return inst, nil
}
