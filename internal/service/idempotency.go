package service

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"net/http"
	"sync"
	"time"

	"mood/internal/clock"
	"mood/internal/trace"
)

// Upload idempotency: the pipeline is at-least-once by construction — a
// sync chunk whose request is cancelled after it was enqueued still
// commits, so a client retrying it would publish the same chunk twice.
// Batch chunks that carry a per-line "key" opt into a bounded dedupe
// window: the first chunk under a (user, key) pair executes, and every
// retry replays the original outcome — waiting for it if the original is
// still running — instead of committing again. Keys are scoped per user, so one participant cannot collide with (or
// probe) another's keys. Failed uploads release their key: a retry after
// a genuine engine error re-executes, because the failure committed
// nothing. The window is bounded by entry count (oldest completed
// entries evicted first), so a long-lived server cannot leak memory one
// key at a time.

const (
	// maxIdempotencyKeyLen bounds a chunk's key so keys cannot be abused
	// as a storage channel.
	maxIdempotencyKeyLen = 200
	// DefaultIdempotencyWindow is the default dedupe-window capacity in
	// entries.
	DefaultIdempotencyWindow = 4096
)

// errUploadShed completes an idempotency entry whose upload never made
// it into the queue, so concurrent replay waiters are released and the
// key freed for the client's next retry.
var errUploadShed = errors.New("upload shed before execution")

// idemEntry tracks one (user, key) upload from acceptance to outcome.
type idemEntry struct {
	// fp fingerprints the original payload: a key reused with a
	// *different* body is a client bug and must be rejected, not answered
	// with the first body's result (silent under-delivery). Immutable
	// after creation.
	fp uint64
	// jobID is set when the original upload was asynchronous; replays
	// are then answered with the job status.
	jobID string
	// done is closed once resp/err are final.
	done chan struct{}

	resp      UploadResponse
	err       error
	completed bool
	// doneAt stamps completion on the store's clock; the TTL sweep
	// expires completed entries by age. Zero while pending.
	doneAt time.Time
}

// uploadFingerprint hashes the upload's identity-relevant content (user
// plus every record's coordinates and timestamp) so replays can detect
// key reuse across different payloads.
func uploadFingerprint(t trace.Trace) uint64 {
	h := fnv.New64a()
	h.Write([]byte(t.User)) //nolint:errcheck // fnv never fails
	var buf [24]byte
	for _, r := range t.Records {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(r.Lat))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.Lon))
		binary.LittleEndian.PutUint64(buf[16:], uint64(r.TS))
		h.Write(buf[:]) //nolint:errcheck
	}
	return h.Sum64()
}

// idemStore is the bounded dedupe window. Entries are evicted by count
// (oldest completed first, always) and additionally by age when a TTL
// is configured: a completed entry older than the TTL is forgotten, so
// a retry under its key re-executes — the dedupe promise is explicitly
// time-bounded, like Stripe-style idempotency windows.
type idemStore struct {
	mu        sync.Mutex
	cap       int
	ttl       time.Duration // 0 = count-only eviction
	clk       clock.Clock
	entries   map[string]*idemEntry
	order     []string  // insertion order, for eviction
	lastSweep time.Time // last full TTL sweep (see sweepExpiredLocked)
}

func newIdemStore(capacity int, ttl time.Duration, clk clock.Clock) *idemStore {
	if capacity <= 0 {
		capacity = DefaultIdempotencyWindow
	}
	if clk == nil {
		clk = clock.System()
	}
	return &idemStore{cap: capacity, ttl: ttl, clk: clk, entries: make(map[string]*idemEntry)}
}

// idemKey scopes a client key to its user. The user ID is
// length-prefixed implicitly by the separator: user IDs are validated
// upstream and client keys are opaque, so the NUL separator cannot occur
// in either.
func idemKey(user, key string) string { return user + "\x00" + key }

// begin registers intent to run an upload under (user, key). It returns
// the tracking entry and whether this caller is the first — the first
// executes, everyone else replays (after checking the payload
// fingerprint against the entry's).
func (st *idemStore) begin(user, key string, fp uint64) (*idemEntry, bool) {
	k := idemKey(user, key)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepExpiredLocked()
	if e, ok := st.entries[k]; ok {
		if !st.expiredLocked(e) {
			return e, false
		}
		// The TTL semantics are exact at lookup time, whatever the
		// sweep cadence: a stale key is forgotten here and the caller
		// gets a fresh entry (the retry re-executes).
		delete(st.entries, k)
	}
	e := &idemEntry{fp: fp, done: make(chan struct{})}
	st.entries[k] = e
	st.order = append(st.order, k)
	st.evictLocked()
	return e, true
}

// setJob records the async job handle for replays to poll.
func (st *idemStore) setJob(e *idemEntry, jobID string) {
	st.mu.Lock()
	e.jobID = jobID
	st.mu.Unlock()
}

// jobOf returns the async job handle, if the original was asynchronous.
func (st *idemStore) jobOf(e *idemEntry) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return e.jobID
}

// complete finalises an entry with the upload outcome and wakes every
// replay waiter. A failed upload releases its key so the next retry
// re-executes; a successful one stays in the window for replays.
func (st *idemStore) complete(user, key string, e *idemEntry, resp UploadResponse, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e.completed {
		return
	}
	e.resp, e.err, e.completed = resp, err, true
	e.doneAt = st.clk.Now()
	close(e.done)
	if err != nil {
		k := idemKey(user, key)
		if st.entries[k] == e {
			delete(st.entries, k)
		}
		// Failures release map entries without going through eviction, so
		// order is compacted lazily here or it would grow one dead key per
		// failed upload for the life of the server.
		st.compactLocked()
	}
}

// expiredLocked reports whether an entry's outcome has aged past the
// TTL. Pending entries never expire (the original is still executing;
// forgetting it would let a retry double-commit).
func (st *idemStore) expiredLocked(e *idemEntry) bool {
	return st.ttl > 0 && e.completed && !e.doneAt.After(st.clk.Now().Add(-st.ttl))
}

// sweepExpiredLocked reclaims the memory of expired entries. The full
// scan is rate-limited to once per quarter-TTL — replay correctness
// never depends on it (begin checks each looked-up entry exactly), so
// a keyed upload pays O(1) for expiry on the hot path instead of an
// O(window) scan per request. Holders of an expired entry's pointer
// still read its outcome, exactly as with count eviction.
func (st *idemStore) sweepExpiredLocked() {
	if st.ttl <= 0 {
		return
	}
	now := st.clk.Now()
	interval := st.ttl / 4
	if interval <= 0 {
		interval = st.ttl
	}
	if now.Sub(st.lastSweep) < interval {
		return
	}
	st.lastSweep = now
	cutoff := now.Add(-st.ttl)
	expired := false
	for k, e := range st.entries {
		if e.completed && !e.doneAt.After(cutoff) {
			delete(st.entries, k)
			expired = true
		}
	}
	if expired {
		st.compactLocked()
	}
}

// compactLocked rebuilds order from the live entries once the dead-key
// overhang gets large, keeping each key's oldest position. Amortised
// O(1) per completion, like jobStore.remove.
func (st *idemStore) compactLocked() {
	if len(st.order) <= 2*len(st.entries)+16 {
		return
	}
	kept := st.order[:0]
	seen := make(map[string]bool, len(st.entries))
	for _, k := range st.order {
		if _, ok := st.entries[k]; ok && !seen[k] {
			seen[k] = true
			kept = append(kept, k)
		}
	}
	st.order = kept
}

// persistedIdem is the on-disk form of one completed idempotency entry.
// Only successful completions are persisted: failures release their key
// at completion time (nothing was committed, the retry must execute),
// and pending entries cannot exist at snapshot time on the shutdown
// path (Close checkpoints after the pool drained) — a mid-flight periodic
// snapshot simply does not cover them, which restores the pre-upload
// state for those keys.
type persistedIdem struct {
	// Key is the user-scoped store key (user + NUL + client key).
	Key   string         `json:"key"`
	FP    uint64         `json:"fp"`
	JobID string         `json:"job_id,omitempty"`
	Resp  UploadResponse `json:"resp"`
}

// snapshot exports the completed successful entries in eviction order.
func (st *idemStore) snapshot() []persistedIdem {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]persistedIdem, 0, len(st.entries))
	seen := make(map[string]bool, len(st.entries))
	for _, k := range st.order {
		e, ok := st.entries[k]
		if !ok || seen[k] || !e.completed || e.err != nil {
			continue
		}
		seen[k] = true
		out = append(out, persistedIdem{Key: k, FP: e.fp, JobID: e.jobID, Resp: e.resp})
	}
	return out
}

// restore replaces the window with persisted entries (all completed, so
// a keyed retry that straddles the restart replays instead of
// double-committing the chunk).
func (st *idemStore) restore(entries []persistedIdem) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.entries = make(map[string]*idemEntry, len(entries))
	st.order = st.order[:0]
	now := st.clk.Now()
	for _, pe := range entries {
		if _, dup := st.entries[pe.Key]; dup {
			continue
		}
		// Restored entries restart their TTL at load time: snapshots do
		// not carry completion stamps, and the conservative reading —
		// keep honouring the dedupe for a full window after the restart —
		// errs on the side of not double-committing.
		e := &idemEntry{fp: pe.FP, jobID: pe.JobID, done: make(chan struct{}),
			resp: pe.Resp, completed: true, doneAt: now}
		close(e.done)
		st.entries[pe.Key] = e
		st.order = append(st.order, pe.Key)
	}
	st.evictLocked()
}

// applyRestored installs one completed entry during WAL replay. Unlike
// restore it patches a single key into the live window: a recovered
// commit record carries its idempotency completion in the same frame,
// so replaying the log rebuilds the dedupe window entry by entry.
// Overwrites are last-write-wins — replay order is log order, so the
// latest record under a key is the authoritative outcome.
func (st *idemStore) applyRestored(pe persistedIdem) {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, existed := st.entries[pe.Key]
	e := &idemEntry{fp: pe.FP, jobID: pe.JobID, done: make(chan struct{}),
		resp: pe.Resp, completed: true, doneAt: st.clk.Now()}
	close(e.done)
	st.entries[pe.Key] = e
	if !existed {
		st.order = append(st.order, pe.Key)
	}
	st.evictLocked()
}

// outcome snapshots a completed entry's result without blocking.
func (st *idemStore) outcome(e *idemEntry) (resp UploadResponse, completed bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return e.resp, e.completed, e.err
}

// evictLocked drops the oldest *completed* entries above the capacity.
// Evicting a completed entry only forgets the dedupe — holders of the
// pointer still read its outcome. Pending entries are never evicted:
// dropping one would let a retry re-execute while the original is still
// in flight, the exact double commit this window exists to prevent. The
// pending population is bounded by the upload pipeline itself (queue
// depth + workers + in-flight handlers), so the map exceeds cap at most
// transiently.
func (st *idemStore) evictLocked() {
	if len(st.entries) <= st.cap {
		return
	}
	kept := st.order[:0]
	for _, k := range st.order {
		e := st.entries[k]
		if e == nil {
			continue
		}
		if len(st.entries) > st.cap && e.completed {
			delete(st.entries, k)
			continue
		}
		kept = append(kept, k)
	}
	st.order = kept
}

// replayChunk answers a chunk whose (user, key) already executed or is
// executing. Async originals are answered with their job status; sync
// originals with the original response, waiting for it when the
// original is still in flight (the retry-after-timeout case the
// idempotency window exists for). Every outcome carries the replay
// mark (the result line's "replay" field).
func (s *Server) replayChunk(ctx context.Context, user string, e *idemEntry, async bool) chunkOutcome {
	mark := func(out chunkOutcome) chunkOutcome { out.replay = true; return out }
	if jid := s.idem.jobOf(e); jid != "" {
		if j, ok := s.jobs.get(jid); ok {
			return mark(chunkOutcome{status: http.StatusAccepted, job: &j})
		}
		// Job evicted from the job store. Async originals complete their
		// entry before the job is marked finished (and only finished jobs
		// are evicted), so the entry's outcome is final here; an async
		// caller still expects the JobStatus shape, so rebuild it.
		if async {
			if resp, ok, err := s.idem.outcome(e); ok {
				j := JobStatus{ID: jid, User: user, State: JobDone, Result: &resp}
				if err != nil {
					j = JobStatus{ID: jid, User: user, State: JobFailed, Error: err.Error()}
				}
				return mark(chunkOutcome{status: http.StatusOK, job: &j})
			}
		}
		// Sync caller (or an impossible incomplete entry): fall through
		// to the waiting path, which serves the entry outcome.
	}
	if async {
		// An async caller must not block on a sync original; answer from
		// the entry if it is done, shed otherwise.
		if resp, ok, err := s.idem.outcome(e); ok {
			return mark(replayDone(resp, err))
		}
		return mark(chunkOutcome{status: http.StatusServiceUnavailable, code: CodeQueueFull,
			detail: "original upload still in progress", retryAfter: true})
	}
	select {
	case <-e.done:
		return mark(replayDone(e.resp, e.err))
	case <-ctx.Done():
		// Same contract as the sync dispatch path: the original still
		// runs; the key stays registered, so the next retry replays
		// again.
		return mark(chunkOutcome{status: http.StatusServiceUnavailable, code: CodeCancelled,
			detail: "request cancelled before protection finished"})
	case <-s.pool.drained:
		if resp, ok, err := s.idem.outcome(e); ok {
			return mark(replayDone(resp, err))
		}
		return mark(chunkOutcome{status: http.StatusServiceUnavailable, code: CodeShuttingDown,
			detail: "server shutting down"})
	}
}

// replayDone maps a completed original's outcome onto the retry: a shed
// original was never executed, so the replayer gets the same 503 +
// Retry-After the original caller saw (not a 500, which retrying
// clients treat as fatal); real engine failures stay 500s.
func replayDone(resp UploadResponse, err error) chunkOutcome {
	switch {
	case errors.Is(err, errUploadShed):
		return shedOutcome()
	case isStorageError(err):
		return storageOutcome(err)
	case err != nil:
		return chunkOutcome{status: http.StatusInternalServerError, code: CodeInternal, detail: err.Error()}
	default:
		return chunkOutcome{status: http.StatusOK, resp: &resp}
	}
}
