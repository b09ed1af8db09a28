package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mood/internal/core"
	"mood/internal/store"
	"mood/internal/trace"
)

// The upload pipeline: every chunk — synchronous or asynchronous — is
// an uploadJob dispatched to a bounded worker pool. The queue provides
// backpressure (a full queue pauses the batch stream feeding it) instead
// of letting a traffic spike pile unbounded goroutines onto the
// CPU-heavy protection engine. Synchronous chunks block on the job's
// done channel; async chunks get a job ID to poll at GET /v2/jobs/{id}.
// A worker's part ends where the durable commit begins: it stages the
// commit and either hands it to the commit window of the batch the
// chunk arrived in or commits it as a group of one (commitGroup in
// durable.go is the one commit path).

// Job states reported by GET /v2/jobs/{id}.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobStatus is the wire form of an asynchronous upload's progress.
type JobStatus struct {
	ID    string `json:"id"`
	User  string `json:"user"`
	State string `json:"state"`
	// Error is set when State is "failed".
	Error string `json:"error,omitempty"`
	// Result is set when State is "done".
	Result *UploadResponse `json:"result,omitempty"`
}

// uploadOutcome is what a worker hands back to a synchronous caller.
type uploadOutcome struct {
	resp UploadResponse
	err  error
}

// uploadJob is one unit of protection work.
type uploadJob struct {
	trace trace.Trace
	// done receives the outcome for synchronous uploads (buffered, so
	// workers never block on an abandoned caller). nil for async jobs.
	done chan uploadOutcome
	// id is the job-store key for asynchronous uploads. "" for sync.
	id string
	// idem, when non-nil, is the idempotency entry to complete with the
	// outcome so retries under idemKey replay instead of re-committing.
	idem    *idemEntry
	idemKey string
	// slot, set on synchronous batch chunks, is the chunk's place in the
	// batch request it arrived in: the worker hands the staged commit to
	// that request's commit window instead of syncing the chunk on its
	// own (see batch.go). The job counts in the window's upstream tally
	// until the worker settles it. nil for async chunks and bare commits.
	slot *batchSlot

	// The staged commit, filled in by the worker between Protect and
	// the durable append (see stageCommit): the engine the chunk was
	// protected on, what Protect cost on the server's clock, the commit
	// record foldCommit applies, the client's response and the WAL
	// records. recBuf backs recs, so staging allocates nothing beyond the
	// payloads; payload is the pooled buffer the commit record is encoded
	// in, held until commitGroup has appended it.
	eng     *engineState
	cost    time.Duration
	commit  walUploadCommit
	resp    UploadResponse
	recs    []store.Record
	recBuf  [3]store.Record
	payload *[]byte
}

// workerPool runs uploads on a fixed set of goroutines fed by a bounded
// queue.
type workerPool struct {
	queue chan *uploadJob
	// drained is closed by Server.Close once every worker has exited AND
	// every commit the workers parked in a batch's commit window has
	// been settled: a waiter that sees it closed finds its job complete.
	drained chan struct{}
	wg      sync.WaitGroup

	// stopMu fences intake against shutdown: enqueuers hold the read
	// lock across their send, close() sets stopped and closes queue
	// under the write lock. Once close() holds the lock no send is in
	// flight, and the workers run every job accepted before it.
	stopMu  sync.RWMutex
	stopped bool
}

func newWorkerPool(workers, depth int, run func(*uploadJob)) *workerPool {
	p := &workerPool{queue: make(chan *uploadJob, depth), drained: make(chan struct{})}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for j := range p.queue {
				run(j)
			}
		}()
	}
	return p
}

// enqueueWait blocks until the job is accepted, the context ends or the
// pool stops — the batch endpoint's backpressure. Holding the read
// lock across the blocking send is safe: close() cannot take the write
// lock until we return, and the workers keep draining the queue
// meanwhile, so the send always completes or the context fires.
func (p *workerPool) enqueueWait(ctx context.Context, j *uploadJob) bool {
	p.stopMu.RLock()
	defer p.stopMu.RUnlock()
	if p.stopped {
		return false
	}
	select {
	case p.queue <- j:
		return true
	case <-ctx.Done():
		return false
	}
}

// close stops intake, lets the workers drain the queue and waits for
// them. The caller closes drained once what the workers left behind is
// settled.
func (p *workerPool) close() {
	p.stopMu.Lock()
	p.stopped = true
	close(p.queue)
	p.stopMu.Unlock()
	p.wg.Wait()
}

// ---------------------------------------------------------------------------
// Job store.

// maxRetainedJobs bounds the job store; the oldest finished jobs are
// evicted first, as the idempotency window evicts its oldest completed
// entries, so a long-lived server cannot leak memory one 202 at a time.
const maxRetainedJobs = 10000

type jobStore struct {
	mu   sync.Mutex
	jobs retention[*JobStatus]
}

func newJobStore() *jobStore {
	return &jobStore{jobs: newRetention(maxRetainedJobs, jobFinished)}
}

// jobFinished reports a terminal job: done or failed.
func jobFinished(j *JobStatus) bool { return j.State == JobDone || j.State == JobFailed }

// create registers a new queued job and returns its public status.
func (js *jobStore) create(user string) JobStatus {
	j := &JobStatus{ID: newJobID(), User: user, State: JobQueued}
	js.mu.Lock()
	defer js.mu.Unlock()
	js.jobs.put(j.ID, j)
	return *j
}

// newJobID returns an unguessable job ID. A job handle is the only
// credential for reading another participant's upload outcome (the
// jobs endpoint is exempt from rate limiting), so sequential IDs would
// let any client enumerate every uploader's identity and results.
func newJobID() string {
	var b [16]byte
	rand.Read(b[:]) //nolint:errcheck // crypto/rand.Read never returns an error
	return "job-" + hex.EncodeToString(b[:])
}

// get returns a copy of the job's status.
func (js *jobStore) get(id string) (JobStatus, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j, ok := js.jobs.get(id)
	if !ok {
		return JobStatus{}, false
	}
	return *j, true
}

func (js *jobStore) setRunning(id string) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if j, ok := js.jobs.get(id); ok {
		j.State = JobRunning
	}
}

func (js *jobStore) setDone(_ durable, id string, resp UploadResponse) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if j, ok := js.jobs.get(id); ok {
		j.State = JobDone
		j.Result = &resp
	}
}

func (js *jobStore) setFailed(id string, err error) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if j, ok := js.jobs.get(id); ok {
		j.State = JobFailed
		j.Error = err.Error()
	}
}

// remove forgets a job (used when enqueueing it failed after creation).
func (js *jobStore) remove(id string) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.jobs.remove(id)
}

// ---------------------------------------------------------------------------
// Worker body and job endpoint.

// runJob executes one upload up to its commit: protect, stage the
// commit, then either hand it to the commit window of the batch it
// arrived in or commit it here as a group of one (commitGroup, the one
// commit path, delivers the outcome either way). A panicking protector
// fails the one job, not the process.
func (s *Server) runJob(j *uploadJob) {
	if j.id != "" {
		s.jobs.setRunning(j.id)
	}
	j.eng = s.currentEngine()
	start := s.clk.Now()
	res, err := s.protect(j.eng.p, j.trace)
	j.cost = s.clk.Since(start)
	if err == nil {
		err = s.stageCommit(j, res)
	}
	if err != nil {
		if j.slot != nil {
			j.slot.cw.settle()
		}
		s.finishJob(j, UploadResponse{}, err)
		return
	}
	if j.slot == nil || !j.slot.cw.submit(j, j.slot.idx) {
		s.commitGroup([]*uploadJob{j}, j.recs)
	}
}

// protectAndCommit pushes one bare trace through the worker body
// synchronously — no queue, no job handle, no idempotency entry. The
// retrain and dynamic-experiment tests use it to publish fragments
// without standing up the HTTP pipeline.
func (s *Server) protectAndCommit(t trace.Trace) (UploadResponse, error) {
	j := &uploadJob{trace: t, done: make(chan uploadOutcome, 1)}
	s.runJob(j)
	out := <-j.done
	return out.resp, out.err
}

// protect calls the engine with the recover scoped to just that call:
// a panic must fail the one job, and must never unwind through the
// commit section where it would leak a shard lock.
func (s *Server) protect(p Protector, t trace.Trace) (res core.Result, err error) {
	defer func() {
		if pn := recover(); pn != nil {
			err = fmt.Errorf("protection panicked: %v", pn)
		}
	}()
	res, err = p.Protect(t)
	if err != nil {
		return core.Result{}, fmt.Errorf("protection failed: %w", err)
	}
	return res, nil
}

// handleJobGet serves GET /v2/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// JobList is the GET /v2/jobs payload.
type JobList struct {
	// Jobs holds the matching jobs in insertion order, capped by limit.
	Jobs []JobStatus `json:"jobs"`
	// Total counts every job matching the filters, across the cap.
	Total int `json:"total"`
}

// handleJobsList is GET /v2/jobs?state=&user=&limit=.
func (s *Server) handleJobsList(w http.ResponseWriter, r *http.Request) {
	vals := r.URL.Query()
	state := vals.Get("state")
	switch state {
	case "", JobQueued, JobRunning, JobDone, JobFailed:
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			`unknown state filter (use "queued", "running", "done" or "failed")`)
		return
	}
	limit := DefaultPageLimit
	if raw := vals.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 || n > MaxPageLimit {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("limit must be an integer in 1..%d", MaxPageLimit))
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, s.jobs.list(state, vals.Get("user"), limit))
}

// list filters the store in insertion order.
func (js *jobStore) list(state, user string, limit int) JobList {
	js.mu.Lock()
	defer js.mu.Unlock()
	out := JobList{Jobs: []JobStatus{}}
	for _, j := range js.jobs.all() {
		if state != "" && j.State != state {
			continue
		}
		if user != "" && j.User != user {
			continue
		}
		out.Total++
		if len(out.Jobs) < limit {
			out.Jobs = append(out.Jobs, *j)
		}
	}
	return out
}

// terminal snapshots the finished jobs (done or failed) in insertion
// order for persistence: a terminal job's outcome is immutable, so a
// restart can hand it back to pollers verbatim. Queued and running
// jobs are deliberately not captured — their chunks drain before the
// shutdown snapshot, but a mid-flight periodic snapshot cannot vouch
// for them.
func (js *jobStore) terminal() []JobStatus {
	js.mu.Lock()
	defer js.mu.Unlock()
	out := make([]JobStatus, 0, len(js.jobs.m))
	for _, j := range js.jobs.all() {
		if jobFinished(j) {
			out = append(out, *j)
		}
	}
	return out
}

// applyTerminal installs one terminal job from a WAL record or a
// snapshot: insert-or-overwrite, so a record newer than a snapshot entry
// wins. Installed in snapshot order, the jobs keep their eviction age.
func (js *jobStore) applyTerminal(_ durable, j JobStatus) {
	if j.ID == "" || !jobFinished(&j) {
		return
	}
	js.mu.Lock()
	defer js.mu.Unlock()
	js.jobs.put(j.ID, &j)
}
