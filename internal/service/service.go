// Package service is the deployment tier of MooD: an HTTP middleware
// for the paper's crowd-sensing scenario (§3.4, §4.2). Participants
// upload their daily mobility chunks; the server runs the MooD engine
// on each upload and admits only protected, pseudonymised fragments to
// the published dataset. Vulnerable fragments are never stored.
//
// Wire protocol. The current surface is /v2 — resource-oriented,
// self-describing (GET /v2/openapi.json serves an OpenAPI document
// generated from the same route table that drives the router) and
// errors are RFC 7807 application/problem+json with stable `code`
// fields:
//
//	POST /v2/traces         NDJSON stream of trace chunks in, one
//	                        result line per chunk streamed back
//	                        (per-chunk idempotency keys and async mode)
//	GET  /v2/dataset        cursor-paginated published dataset with
//	                        pseudonym/time filters, JSON/CSV/NDJSON
//	                        content negotiation and ETag revalidation
//	GET  /v2/jobs           list async jobs (state/user filters)
//	GET  /v2/jobs/{id}      one async job (persisted across restarts
//	                        once terminal)
//	GET  /v2/stats          ServerStats
//	GET  /v2/users/{id}     per-user upload accounting
//	GET  /v2/metrics        request metrics (MetricsSnapshot)
//	POST /v2/admin/retrain  retrain attacks on accumulated history,
//	                        hot-swap the engine, re-audit + quarantine
//	GET  /v2/openapi.json   the machine-readable contract
//	GET  /healthz           liveness probe
//
// See routes.go for the table. Wrong-method requests answer a uniform
// 405 with an Allow header derived from the table, any other unknown
// path a 404 problem, and every GET resource also serves HEAD.
//
// Requests flow through a fixed middleware chain (see middleware):
// route resolution, request metrics, panic recovery, request timeout,
// bearer-token auth, per-user rate limiting, then the mux. Every chunk
// of a batch — sync or async — is executed by a bounded worker pool
// over state sharded per user, so concurrent participants never contend
// on one lock, and a full queue paces the batch stream instead of
// piling goroutines onto the engine.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mood/internal/clock"
	"mood/internal/core"
	"mood/internal/store"
	"mood/internal/trace"
)

// Protector is the protection engine the server runs on each upload
// (the MooD engine in production; fakes in tests).
type Protector interface {
	Protect(t trace.Trace) (core.Result, error)
}

// Options tunes the server's admission control and upload pipeline.
// The zero value selects production defaults; use the With* functional
// options to override.
type Options struct {
	// Workers is the upload worker-pool size. Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the upload queue; a full queue pauses the batch
	// streams feeding it until a slot frees. Default 64.
	QueueDepth int
	// RateLimit is the per-user request budget in requests/second;
	// 0 disables rate limiting. RateBurst defaults to 10.
	RateLimit float64
	RateBurst int
	// RequestTimeout bounds every request; 0 means the 2 m default,
	// negative disables the timeout layer.
	RequestTimeout time.Duration
	// AuthToken, when non-empty, requires bearer-token auth in the
	// chain.
	AuthToken string
	// Clock is the time source for every time-dependent behaviour
	// (rate-limit refill, retrain ticker, request
	// latency metrics). Defaults to the system clock; tests and the
	// simulation harness install a steppable clock.Manual.
	Clock clock.Clock
	// Retrainer, when non-nil, enables the online dynamic-protection
	// subsystem: POST /v2/admin/retrain (and, when RetrainInterval > 0,
	// a background ticker) rebuilds the protection engine from the
	// accumulated raw upload history, hot-swaps it, and re-audits every
	// published fragment (see retrain.go).
	Retrainer Retrainer
	// RetrainInterval is the period of the background retrain loop;
	// 0 disables the loop (the admin endpoint still works).
	RetrainInterval time.Duration
	// HistoryCap bounds the per-user raw upload history the retrainer
	// learns from, in records (oldest dropped first). Default 50000;
	// negative disables history accumulation. Only consulted when a
	// Retrainer is configured.
	HistoryCap int
	// Store, when non-nil, is the durability backend: commit records
	// are appended at upload time (acked only once durable), replayed
	// by Recover on boot, and compacted into snapshots in the
	// background (see durable.go and internal/store).
	Store store.Store
	// CheckpointInterval paces the background compaction loop started
	// by Recover. 0 defaults to one minute when a Store is configured;
	// negative disables the loop (Checkpoint still works on demand).
	CheckpointInterval time.Duration
	// NodeID, when non-empty, is this server's stable identity within a
	// moodrouter cluster: /v2/stats gains the node section, and
	// requests the router stamped for a different owner are refused
	// with a retryable 503 "routing" (see node.go).
	NodeID string
}

// Option mutates Options.
type Option func(*Options)

// WithWorkers sets the upload worker-pool size.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithQueueDepth bounds the upload queue.
func WithQueueDepth(n int) Option { return func(o *Options) { o.QueueDepth = n } }

// WithRateLimit enables per-user token-bucket rate limiting.
func WithRateLimit(rps float64, burst int) Option {
	return func(o *Options) { o.RateLimit = rps; o.RateBurst = burst }
}

// WithRequestTimeout bounds every request; d < 0 disables the layer.
func WithRequestTimeout(d time.Duration) Option {
	return func(o *Options) { o.RequestTimeout = d }
}

// WithAuthToken requires the bearer token on every API call.
func WithAuthToken(token string) Option { return func(o *Options) { o.AuthToken = token } }

// WithClock installs the time source. Embedders and tests pass a
// clock.Manual to make rate limiting and the
// retrain loop steppable; the default is the system clock.
func WithClock(c clock.Clock) Option { return func(o *Options) { o.Clock = c } }

// WithRetrainer enables online dynamic protection: rt rebuilds the
// engine from accumulated history, interval drives the background loop
// (0 = on-demand only via POST /v2/admin/retrain).
func WithRetrainer(rt Retrainer, interval time.Duration) Option {
	return func(o *Options) { o.Retrainer = rt; o.RetrainInterval = interval }
}

// WithHistoryCap bounds the per-user raw history, in records.
func WithHistoryCap(n int) Option { return func(o *Options) { o.HistoryCap = n } }

// WithStore installs the durability backend. Call Recover after New to
// replay it before serving traffic.
func WithStore(st store.Store) Option { return func(o *Options) { o.Store = st } }

// WithCheckpointInterval paces the background compaction loop
// (negative disables it).
func WithCheckpointInterval(d time.Duration) Option {
	return func(o *Options) { o.CheckpointInterval = d }
}

// WithNodeID sets the server's stable cluster identity (the misroute
// guard and the stats node section come with it).
func WithNodeID(id string) Option { return func(o *Options) { o.NodeID = id } }

// DefaultRequestTimeout is what a zero Options.RequestTimeout means;
// exported so operators sizing http.Server write timeouts around the
// handler timeout can mirror the resolution.
const DefaultRequestTimeout = 2 * time.Minute

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.RateBurst <= 0 {
		o.RateBurst = 10
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	if o.HistoryCap == 0 {
		o.HistoryCap = DefaultHistoryCap
	}
	if o.Store != nil && o.CheckpointInterval == 0 {
		o.CheckpointInterval = time.Minute
	}
	if o.Clock == nil {
		o.Clock = clock.System()
	}
}

// Server implements the crowd-sensing middleware. Create with New and
// mount via Handler. Safe for concurrent use; Close releases the worker
// pool.
type Server struct {
	// engine is read atomically on every upload and replaced whole by a
	// retrain pass, so the protector hot-swaps with zero upload
	// downtime: in-flight jobs finish on the engine they loaded, new
	// jobs pick up the fresh one. The cell also carries the auditor and
	// an epoch so a commit can detect it ran on a stale engine (see
	// audit.go).
	engine atomic.Pointer[engineState]
	opts   Options
	clk    clock.Clock

	shards  [numShards]stateShard
	pseudo  atomic.Int64
	fragSeq atomic.Int64 // audit handles for published fragments
	// quarGen counts quarantine removals; together with fragSeq it
	// versions the published dataset for ETag revalidation and the
	// assembled-dataset cache (see dataset.go).
	quarGen atomic.Int64
	dsCache atomic.Pointer[dsCacheEntry]

	pool *workerPool
	// parked counts staged commits sitting in a batch's commit window
	// (batch.go): Close waits for it after draining the pool, so the
	// final checkpoint covers every commit a worker handed off.
	parked  sync.WaitGroup
	jobs    *jobStore
	idem    *idemStore
	metrics *requestMetrics

	openapiOnce sync.Once
	openapiJSON []byte

	retrainMu   sync.Mutex // held by the one retrain+audit pass in flight
	retrains    atomic.Int64
	histGen     atomic.Int64 // bumped on every history append
	lastTrained atomic.Int64 // histGen the last successful pass saw
	retrainStop chan struct{}
	retrainDone chan struct{}
	// retrainTicks counts fully processed ticks of the periodic loop
	// (skipped or retrained). On a manual clock this is the rendezvous
	// that lets a test know an Advance-delivered tick has been consumed
	// before it mutates history — without it, "this tick was idle"
	// cannot be asserted deterministically.
	retrainTicks atomic.Int64

	saveMu sync.Mutex // serialises checkpoints
	closed atomic.Bool

	// store is the durability backend (nil = in-memory only, the
	// historical behaviour). storeGate is the consistency barrier:
	// commits append+apply under the read side, Checkpoint fences and
	// captures under the write side (see durable.go). Lock order is
	// storeGate before shard mutexes.
	store     store.Store
	storeGate sync.RWMutex
	// recoverCalled guards Recover against a second call; recovered is set
	// only once it has succeeded, and is what lets Checkpoint and Close
	// write to the store.
	recoverCalled atomic.Bool
	recovered     atomic.Bool
	ckptStop      chan struct{}
	ckptDone      chan struct{}
	// ckptTicks counts fully settled checkpoint-loop ticks — the manual
	// clock rendezvous, like retrainTicks.
	ckptTicks atomic.Int64
	persistMu sync.Mutex
	persist   persistState
	// commitGroups counts durable commit appends and commits the uploads
	// they carried (their quotient is chunks per sync); lastAppend is how
	// long the most recent one took on clk, in nanoseconds — what a commit
	// window weighs a chunk's protection cost against.
	commitGroups atomic.Int64
	commits      atomic.Int64
	lastAppend   atomic.Int64

	// node is the cluster identity (nil outside a cluster); see node.go.
	node *nodeState
}

// engineState is the atomically-swapped protection engine: the
// protector uploads run on, the auditor that judges published fragments
// against the same attack generation, and a monotonically increasing
// epoch (0 = the startup engine) used to detect commits that raced a
// swap.
type engineState struct {
	p       Protector
	auditor Auditor
	epoch   int64
}

// currentEngine loads the engine state an upload should run on.
func (s *Server) currentEngine() *engineState {
	return s.engine.Load()
}

// UserStats is the per-participant accounting.
type UserStats struct {
	// Uploads counts accepted upload requests.
	Uploads int `json:"uploads"`
	// RecordsIn counts raw records received.
	RecordsIn int `json:"records_in"`
	// RecordsPublished counts records admitted after protection.
	RecordsPublished int `json:"records_published"`
	// RecordsRejected counts records erased as unprotectable.
	RecordsRejected int `json:"records_rejected"`
	// RecordsQuarantined counts published records later pulled by a
	// re-audit pass (see retrain.go).
	RecordsQuarantined int `json:"records_quarantined"`
	// Pieces counts published fragments.
	Pieces int `json:"pieces"`
	// PiecesQuarantined counts fragments pulled by re-audit passes.
	PiecesQuarantined int `json:"pieces_quarantined"`
}

// ServerStats is the global accounting.
type ServerStats struct {
	// Uploads counts accepted upload requests.
	Uploads int `json:"uploads"`
	// Users counts distinct uploaders.
	Users int `json:"users"`
	// RecordsIn, RecordsPublished and RecordsRejected aggregate the
	// per-user counters.
	RecordsIn        int `json:"records_in"`
	RecordsPublished int `json:"records_published"`
	RecordsRejected  int `json:"records_rejected"`
	// RecordsQuarantined counts once-published records pulled by
	// re-audit passes.
	RecordsQuarantined int `json:"records_quarantined"`
	// PublishedTraces counts fragments in the published dataset.
	PublishedTraces int `json:"published_traces"`
	// QuarantinedTraces counts fragments removed because a retrained
	// attack set re-identifies them (continuous risk re-assessment).
	QuarantinedTraces int `json:"quarantined_traces"`
	// Retrains counts completed retrain + re-audit passes.
	Retrains int `json:"retrains"`
}

// UploadResponse reports what happened to an upload.
type UploadResponse struct {
	// Accepted is the number of records admitted to the dataset.
	Accepted int `json:"accepted"`
	// Rejected is the number of records erased as unprotectable.
	Rejected int `json:"rejected"`
	// Pieces is the number of published fragments.
	Pieces int `json:"pieces"`
	// Mechanisms lists the LPPM (compositions) used per fragment.
	Mechanisms []string `json:"mechanisms"`
}

// New returns a Server protecting uploads with p. Call Close when done
// to release the worker pool.
func New(p Protector, opts ...Option) (*Server, error) {
	if p == nil {
		return nil, errors.New("service: nil protector")
	}
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	o.fill()
	s := &Server{
		opts:    o,
		clk:     o.Clock,
		jobs:    newJobStore(),
		idem:    newIdemStore(idempotencyWindow),
		metrics: newRequestMetrics(o.Clock),
		store:   o.Store,
	}
	if o.NodeID != "" {
		s.node = &nodeState{id: o.NodeID, bootedAt: o.Clock.Now().Unix()}
	}
	s.engine.Store(&engineState{p: p})
	for i := range s.shards {
		s.shards[i] = stateShard{users: make(map[string]*UserStats), history: make(map[string]*userHistory)}
	}
	s.pool = newWorkerPool(o.Workers, o.QueueDepth, s.runJob)
	if o.Retrainer != nil && o.RetrainInterval > 0 {
		s.retrainStop = make(chan struct{})
		s.retrainDone = make(chan struct{})
		go s.retrainLoop(o.RetrainInterval)
	}
	return s, nil
}

// Close stops the upload pipeline: intake ends, queued jobs are drained,
// the workers exit and every commit they parked in a batch's commit
// window is settled by its committer. When a store is configured and was
// recovered, a final checkpoint compacts everything the drained pipeline
// committed; then the store is released. A server whose Recover failed
// (or never ran) writes nothing: what it could not read stays as it is.
// Safe to call more than once.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.retrainStop != nil {
		close(s.retrainStop)
		<-s.retrainDone
	}
	s.pool.close()
	// No worker is left to park a commit, and a closing server's windows
	// hold nothing back (see commitWindow): each commits what it holds at
	// its next event, and one is always due — its upstream chunks are shed
	// by the stopped pool, its reader stalls or runs dry.
	s.parked.Wait()
	close(s.pool.drained)
	if s.ckptStop != nil {
		close(s.ckptStop)
		<-s.ckptDone
	}
	var err error
	if s.store != nil {
		if s.recovered.Load() {
			// Every commit is already durable in the log; the final
			// checkpoint just makes the next boot's replay cheap. Its
			// error still surfaces — a failing disk at shutdown is worth
			// knowing about.
			err = s.Checkpoint()
		}
		if cerr := s.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Handler returns the HTTP handler tree wrapped in the middleware
// chain. The router, every middleware exemption and the metrics labels
// are all driven by the declarative route table (routes.go); the chain
// order is fixed: Resolve, Metrics, Recover, Timeout, Auth, RateLimit
// (the latter three only when configured); see middleware for the
// rationale.
func (s *Server) Handler() http.Handler {
	rr := buildRouter(s.routes())

	mws := []middleware{rr.resolve, s.metrics.middleware, recoverPanics()}
	if s.node != nil {
		mws = append(mws, s.ownerGuard)
	}
	if s.opts.RequestTimeout > 0 {
		mws = append(mws, timeout(s.opts.RequestTimeout))
	}
	if s.opts.AuthToken != "" {
		mws = append(mws, auth(s.opts.AuthToken))
	}
	if s.opts.RateLimit > 0 {
		mws = append(mws, rateLimit(s.opts.RateLimit, s.opts.RateBurst, s.clk))
	}
	return chain(rr.terminal(), mws...)
}

// ---------------------------------------------------------------------------
// The upload core. Every chunk of a POST /v2/traces batch funnels into
// executeChunk, which runs one validated chunk through idempotency,
// dispatch and the worker pool and answers with the chunk's NDJSON
// result line; the batch handler sets its Index and User.

// executeChunk runs one validated chunk: idempotency begin/replay, then
// sync or async dispatch. sl is the chunk's slot in its batch request.
// When the queue is full the chunk blocks until a queue slot frees, the
// context ends or the server stops — a bulk feeder is paced, not
// bounced. The chunk counts in its commit window's upstream tally on
// entry; every path that cannot end in the window settles it before it
// blocks or returns.
func (s *Server) executeChunk(ctx context.Context, t trace.Trace, key string, async bool, sl *batchSlot) BatchResult {
	var idem *idemEntry
	if key != "" {
		fp := uploadFingerprint(t)
		e, isNew := s.idem.begin(t.User, key, fp)
		if !isNew {
			sl.cw.replayed()
			if e.fp != fp {
				// Key reuse with a different body is a client bug; answering
				// with the first body's result would silently drop this
				// upload behind a 200.
				return BatchResult{Status: http.StatusUnprocessableEntity, Code: CodeKeyReuse,
					Error: "idempotency key was already used with a different payload"}
			}
			// Retry of an upload already accepted under this key: replay
			// the original outcome instead of committing twice.
			return s.replayChunk(ctx, t.User, e, async)
		}
		idem = e
	}
	if async {
		sl.cw.settle()
		return s.asyncChunk(ctx, t, key, idem)
	}
	return s.syncChunk(ctx, t, key, idem, sl)
}

// shedOutcome is the canonical answer to a chunk the pool refused.
func shedOutcome() BatchResult {
	return BatchResult{Status: http.StatusServiceUnavailable, Code: CodeQueueFull,
		Error: "upload queue full", RetryAfterSeconds: 1}
}

// syncChunk dispatches the chunk and waits for the outcome. Once
// enqueued, the job carries its window's upstream count: the worker
// settles it.
func (s *Server) syncChunk(ctx context.Context, t trace.Trace, key string, idem *idemEntry, sl *batchSlot) BatchResult {
	j := &uploadJob{trace: t, done: make(chan uploadOutcome, 1), idemKey: key, idem: idem, slot: sl}
	if !s.pool.enqueueWait(ctx, j) {
		sl.cw.settle()
		if idem != nil {
			// The job never ran: release the key so the retry executes.
			s.idem.release(t.User, key, idem, errUploadShed)
		}
		return shedOutcome()
	}
	select {
	case out := <-j.done:
		return replayDone(out.resp, out.err)
	case <-ctx.Done():
		// The client gave up; the job still runs to completion in the pool
		// and its records are kept (at-least-once). A client that retries
		// bare may publish the same chunk twice; retries carrying the same
		// per-chunk key replay the original result instead (see
		// idempotency.go).
		return BatchResult{Status: http.StatusServiceUnavailable, Code: CodeCancelled,
			Error: "request cancelled before protection finished"}
	case <-s.pool.drained:
		// Server shut down mid-wait; the pool's drain and the commit
		// windows behind it may have completed the job after all.
		select {
		case out := <-j.done:
			return replayDone(out.resp, out.err)
		default:
			return BatchResult{Status: http.StatusServiceUnavailable, Code: CodeShuttingDown,
				Error: "server shutting down"}
		}
	}
}

// asyncChunk queues the chunk and reports 202 with the job handle.
func (s *Server) asyncChunk(ctx context.Context, t trace.Trace, key string, idem *idemEntry) BatchResult {
	j := s.jobs.create(t.User)
	if idem != nil {
		// Registered before enqueue so replays can poll the same job.
		s.idem.setJob(idem, j.ID)
	}
	if !s.pool.enqueueWait(ctx, &uploadJob{trace: t, id: j.ID, idemKey: key, idem: idem}) {
		if idem != nil {
			// A concurrent replay may already have been answered 202 with
			// this job ID (setJob races with the refusal), so the handle
			// must stay pollable: mark it failed rather than removing it,
			// and release the key so the retry re-executes.
			s.jobs.setFailed(j.ID, errUploadShed)
			s.idem.release(t.User, key, idem, errUploadShed)
		} else {
			s.jobs.remove(j.ID)
		}
		return shedOutcome()
	}
	return BatchResult{Status: http.StatusAccepted, Job: &j}
}

// maxUserIDLen bounds uploader IDs; they are path segments and map keys,
// not payloads.
const maxUserIDLen = 256

// validateUserID rejects IDs that cannot round-trip through the API:
// `/` would make the user unreachable via GET /v2/users/{id} (a path
// segment), and control characters poison logs, CSV export and the
// NUL-separated idempotency key space.
func validateUserID(id string) error {
	if id == "" {
		return errors.New("missing user")
	}
	if len(id) > maxUserIDLen {
		return fmt.Errorf("user id exceeds %d bytes", maxUserIDLen)
	}
	for _, r := range id {
		if r == '/' {
			return errors.New("invalid user id: must not contain '/'")
		}
		if r < 0x20 || r == 0x7f {
			return errors.New("invalid user id: must not contain control characters")
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Read-side handlers.

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsPayload())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}

// handleUserGet serves GET /v2/users/{id}.
func (s *Server) handleUserGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sh := s.shard(id)
	sh.mu.Lock()
	us, ok := sh.users[id]
	var copyStats UserStats
	if ok {
		copyStats = *us
	}
	sh.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown user")
		return
	}
	writeJSON(w, http.StatusOK, copyStats)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing useful left to do but note it.
		fmt.Fprintf(w, "\n")
	}
}
