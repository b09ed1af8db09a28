package service

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"net/http"
	"sync"

	"mood/internal/trace"
)

// Upload idempotency: the pipeline is at-least-once by construction — a
// sync chunk whose request is cancelled after it was enqueued still
// commits, so a client retrying it would publish the same chunk twice.
// Batch chunks that carry a per-line "key" opt into a bounded dedupe
// window: the first chunk under a (user, key) pair executes, and every
// retry replays the original outcome — waiting for it if the original is
// still running — instead of committing again. Keys are scoped per user,
// so one participant cannot collide with (or probe) another's keys.
// Failed uploads release their key: a retry after a genuine engine error
// re-executes, because the failure committed nothing. The window is
// bounded by entry count (completed entries evicted oldest begin first),
// so a long-lived server cannot leak memory one key at a time.

const (
	// maxIdempotencyKeyLen bounds a chunk's key so keys cannot be abused
	// as a storage channel.
	maxIdempotencyKeyLen = 200
	// idempotencyWindow is the dedupe-window capacity in entries.
	idempotencyWindow = 4096
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

// idemStore is the bounded dedupe window: above its capacity, completed
// entries are evicted in the order their entries began. A key released
// by a failure leaves the table with its entry, so a retry under it is
// as young as its own begin.
type idemStore struct {
	mu      sync.Mutex
	entries retention[*idemEntry]
}

// newIdemStore sizes the window. Evicting a completed entry only
// forgets the dedupe — holders of the pointer still read its outcome.
// Pending entries are never evicted: dropping one would let a retry
// re-execute while the original is still in flight, the exact double
// commit this window exists to prevent.
func newIdemStore(capacity int) *idemStore {
	return &idemStore{entries: newRetention(capacity, func(e *idemEntry) bool { return e.completed })}
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
	if e, ok := st.entries.get(k); ok {
		return e, false
	}
	e := &idemEntry{fp: fp, done: make(chan struct{})}
	st.entries.put(k, e)
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

// complete finalises an entry with its committed upload's response and
// wakes every replay waiter. The entry stays in the window for replays.
func (st *idemStore) complete(_ durable, e *idemEntry, resp UploadResponse) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !e.completed {
		e.resp, e.completed = resp, true
		close(e.done)
	}
}

// release finalises an entry whose upload failed or was refused and
// wakes every replay waiter. Nothing was committed, so it releases the
// key as well: the next retry re-executes.
func (st *idemStore) release(user, key string, e *idemEntry, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e.completed {
		return
	}
	e.err, e.completed = err, true
	close(e.done)
	k := idemKey(user, key)
	if cur, _ := st.entries.get(k); cur == e {
		st.entries.remove(k)
	}
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
	out := make([]persistedIdem, 0, len(st.entries.m))
	for k, e := range st.entries.all() {
		if e.completed && e.err == nil {
			out = append(out, persistedIdem{Key: k, FP: e.fp, JobID: e.jobID, Resp: e.resp})
		}
	}
	return out
}

// applyRestored installs one completed entry from a snapshot or a WAL
// record, so a keyed retry that straddles a restart replays instead of
// double-committing the chunk. A recovered commit record carries its
// idempotency completion in the same frame, so replaying the log
// rebuilds the dedupe window entry by entry, after the snapshot's
// entries in their eviction order. Overwrites are last-write-wins —
// replay order is log order, so the latest record under a key is the
// authoritative outcome.
func (st *idemStore) applyRestored(_ durable, pe persistedIdem) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.entries.put(pe.Key, completedIdem(pe))
}

// completedIdem rebuilds a persisted entry as a completed one.
func completedIdem(pe persistedIdem) *idemEntry {
	e := &idemEntry{fp: pe.FP, jobID: pe.JobID, done: make(chan struct{}), resp: pe.Resp, completed: true}
	close(e.done)
	return e
}

// outcome snapshots a completed entry's result without blocking.
func (st *idemStore) outcome(e *idemEntry) (resp UploadResponse, completed bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return e.resp, e.completed, e.err
}

// replayChunk answers a chunk whose (user, key) already executed or is
// executing. Async originals are answered with their job status; sync
// originals with the original response, waiting for it when the
// original is still in flight (the retry-after-timeout case the
// idempotency window exists for). Every outcome carries the replay
// mark (the result line's "replay" field).
func (s *Server) replayChunk(ctx context.Context, user string, e *idemEntry, async bool) BatchResult {
	mark := func(out BatchResult) BatchResult { out.Replay = true; return out }
	if jid := s.idem.jobOf(e); jid != "" {
		if j, ok := s.jobs.get(jid); ok {
			return mark(BatchResult{Status: http.StatusAccepted, Job: &j})
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
				return mark(BatchResult{Status: http.StatusOK, Job: &j})
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
		return mark(BatchResult{Status: http.StatusServiceUnavailable, Code: CodeQueueFull,
			Error: "original upload still in progress", RetryAfterSeconds: 1})
	}
	select {
	case <-e.done:
		return mark(replayDone(e.resp, e.err))
	case <-ctx.Done():
		// Same contract as the sync dispatch path: the original still
		// runs; the key stays registered, so the next retry replays
		// again.
		return mark(BatchResult{Status: http.StatusServiceUnavailable, Code: CodeCancelled,
			Error: "request cancelled before protection finished"})
	case <-s.pool.drained:
		if resp, ok, err := s.idem.outcome(e); ok {
			return mark(replayDone(resp, err))
		}
		return mark(BatchResult{Status: http.StatusServiceUnavailable, Code: CodeShuttingDown,
			Error: "server shutting down"})
	}
}

// replayDone maps a completed upload's outcome onto the wire, for the
// synchronous caller and for every retry that replays it. A shed
// original was never executed, so the replayer gets the same 503 +
// Retry-After the original caller saw; a storage refusal is a retryable
// 503 too — nothing was committed and nothing acked — never a
// fatal-looking 500, which retrying clients treat as fatal. Real engine
// failures stay 500s.
func replayDone(resp UploadResponse, err error) BatchResult {
	switch {
	case errors.Is(err, errUploadShed):
		return shedOutcome()
	case isStorageError(err):
		return storageOutcome(err)
	case err != nil:
		return BatchResult{Status: http.StatusInternalServerError, Code: CodeInternal, Error: err.Error()}
	default:
		return BatchResult{Status: http.StatusOK, Result: &resp}
	}
}
