// Crash-safe durability for the service tier.
//
// When a store.Store is configured (WithStore), every upload commit is
// appended to it as a durable record *before* its effects are applied
// to the in-memory state or acknowledged to the client: under
// -fsync=always an acked chunk is on stable storage, so a crash at any
// point loses zero acked uploads. On boot, Recover replays the latest
// snapshot plus every record appended after it, rebuilding exactly the
// acknowledged state. A background checkpoint loop compacts the log
// into a fresh snapshot whenever enough has accumulated, retrying
// failures with backoff on the injected clock and surfacing its health
// in /v2/stats.
//
// One commit path. Every upload commit — a single-chunk upload, an
// async job, the chunks of an NDJSON batch — goes through commitGroup:
// the records of a GROUP of staged uploads are appended as one frame
// under one sync, then each commit is applied and acknowledged. Most
// groups are groups of one; a batch request gathers the chunks that are
// ready at the same time in its commit window (batch.go), so a batch's
// result lines are released as commit windows complete and its chunks
// share the one cost none of them can avoid.
//
// Consistency barrier. A group is appended and then applied while
// holding storeGate.RLock; Checkpoint holds the write lock across Mark
// and the state capture. This makes append+apply of a whole group
// atomic with respect to the snapshot: every record appended before the
// Mark has its effects in the captured state (so compaction never drops
// an uncovered record), no record can land between the Mark and the
// capture, and no snapshot sees a group half applied. The capture copies
// no record — it takes slice headers over arrays that are never
// rewritten (captureState) — and the snapshot is encoded and written
// after the lock is released, so a commit queues behind microseconds,
// not behind the encode. Lock order is storeGate before shard mutexes,
// everywhere.
//
// Exactly-once across crashes. A keyed upload's commit record, its
// idempotency completion and (for async) its terminal job status are
// appended in ONE atomic frame — the frame of its group: recovery
// restores the dedupe entry together with the commit, so a client
// retrying an acked chunk after a crash replays the original outcome
// instead of committing twice, and it sees a group whole or not at all
// — a torn group was never acknowledged. When the append itself fails,
// nothing of the group is applied and every key in it is released — the
// clients see 503 storage_unavailable and their retries re-execute
// (at-most-once per ack, always).
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"mood/internal/core"
	"mood/internal/store"
	"mood/internal/trace"
)

// Record types of the service tier's WAL schema. The upload commit —
// one per acknowledged upload — and the snapshot share one binary codec
// (walcodec.go); the other records are tiny or rare and are JSON, of the
// same structs the snapshot carries (persistedIdem, JobStatus). Unknown
// types are skipped on replay (forward compatibility: an older binary
// recovering a newer log keeps what it understands) — unlike a snapshot
// this binary cannot read, which fails Recover.
const (
	recUploadCommit byte = 1
	recIdemComplete byte = 2
	recJobTerminal  byte = 3
	recQuarantine   byte = 4
	recRetrainEpoch byte = 5
)

// walUploadCommit is the durable form of one committed upload: the
// accounting deltas, the published fragments (with their durable Seq
// handles), and the raw history records when the retrain subsystem
// consumes them.
type walUploadCommit struct {
	User      string          `json:"user"`
	RecordsIn int             `json:"records_in"`
	Accepted  int             `json:"accepted"`
	Rejected  int             `json:"rejected"`
	Frags     []publishedFrag `json:"frags,omitempty"`
	History   []trace.Record  `json:"history,omitempty"`
	// Pseudo is the highest pseudonym counter value this commit
	// allocated (0 = none); replay folds it in with max semantics.
	Pseudo int64 `json:"pseudo,omitempty"`
}

// walQuarantine records fragments pulled by a re-audit pass, by Seq.
type walQuarantine struct {
	Seqs []int64 `json:"seqs"`
}

// walRetrain records a completed retrain pass (max semantics: the
// counter also rides in every snapshot).
type walRetrain struct {
	Retrains int64 `json:"retrains"`
}

// durable witnesses that a state change is on the log: every apply takes
// one first, so the compiler refuses an apply no append preceded. Only
// this file mints one — appendAndApply once Append returned nil (or with
// no store), Recover for replay, quarantineAudited for an advisory
// record — and moodvet's appendapply keeps every other one a parameter.
type durable struct{}

// storageError marks a commit refused because its durability append
// failed: nothing was applied, nothing acked. Callers map it to
// 503 + storage_unavailable so clients retry instead of treating it as
// a fatal engine error.
type storageError struct{ err error }

func (e *storageError) Error() string { return "storage: " + e.err.Error() }
func (e *storageError) Unwrap() error { return e.err }

// encodeRec marshals one WAL record payload.
func encodeRec(typ byte, v any) (store.Record, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return store.Record{}, err
	}
	return store.Record{Type: typ, Payload: data}, nil
}

// ---------------------------------------------------------------------------
// The commit path.

// stageCommit stages the result of one protected upload on its job,
// outside every lock: the commit record and the client's response, with
// pseudonyms and fragment sequence numbers drawn from the atomics up
// front so the durable record and the in-memory fold agree exactly, and
// the WAL records that make it durable (commitRecords). Sequence numbers
// drawn here are burned even if the commit is later refused; they only
// need to be unique. A job whose records cannot be encoded fails here,
// before anything is appended.
func (s *Server) stageCommit(j *uploadJob, res core.Result) error {
	t := j.trace
	c := &j.commit
	*c = walUploadCommit{User: t.User, RecordsIn: t.Len(), Accepted: res.ProtectedRecords(), Rejected: res.LostRecords}
	if s.opts.Retrainer != nil && s.opts.HistoryCap > 0 {
		c.History = t.Records
	}
	j.resp = UploadResponse{Accepted: c.Accepted, Rejected: c.Rejected, Pieces: len(res.Pieces)}
	for _, p := range res.Pieces {
		pub := p.Trace
		if pub.User == t.User {
			// Whole-trace pieces keep the engine-side identity; the
			// middleware never publishes a raw uploader ID, so relabel
			// with a server-scoped pseudonym.
			n := s.pseudo.Add(1)
			c.Pseudo = max(c.Pseudo, n)
			pub = pub.WithUser(fmt.Sprintf("pub-%06d", n))
		}
		c.Frags = append(c.Frags, publishedFrag{Seq: s.fragSeq.Add(1), Trace: pub, Owner: t.User})
		j.resp.Mechanisms = append(j.resp.Mechanisms, p.Mechanism)
	}
	if s.store == nil {
		return nil
	}
	if err := s.commitRecords(j); err != nil {
		return &storageError{err: err}
	}
	return nil
}

// commitRecords builds the atomic record batch for one upload into
// j.recs. The idempotency completion and terminal job status ride in
// the same frame as the commit so recovery can never observe one
// without the others — the exactly-once guarantee for keyed retries
// across a crash.
func (s *Server) commitRecords(j *uploadJob) error {
	// The commit record is binary (walcodec.go): one per acked upload,
	// so JSON float formatting of its coordinates would dominate the
	// commit path's CPU. Its payload is pooled: commitGroup returns it.
	j.payload = getBytes()
	*j.payload = encodeUploadCommit(*j.payload, j.commit)
	j.recs = append(j.recBuf[:0], store.Record{Type: recUploadCommit, Payload: *j.payload})
	if j.idem != nil {
		rec, err := encodeRec(recIdemComplete, persistedIdem{
			Key: idemKey(j.commit.User, j.idemKey), FP: j.idem.fp, JobID: j.id, Resp: j.resp,
		})
		if err != nil {
			return err
		}
		j.recs = append(j.recs, rec)
	}
	if j.id != "" {
		rec, err := encodeRec(recJobTerminal, JobStatus{
			ID: j.id, User: j.commit.User, State: JobDone, Result: &j.resp,
		})
		if err != nil {
			return err
		}
		j.recs = append(j.recs, rec)
	}
	return nil
}

// commitGroup is the one commit path. It makes a group of staged
// uploads durable with ONE store.Append — one frame, one sync, however
// many chunks a batch's commit window gathered; a single-chunk upload,
// an async job and a chunk whose request is gone are groups of one —
// and only then applies each commit and delivers each outcome. recs is
// the concatenation of the group's j.recs, in group order. A refused
// append applies NOTHING: every job of the group fails with a
// storageError (a retryable 503 with the key released) and, because no
// frame exists, no retry can double-commit. A frame is atomic, so
// recovery sees the whole group or none of it — and none of it was
// acknowledged. Once the append has returned, the store keeps nothing
// of recs (see store.Store), so the commit payloads go back to the pool.
func (s *Server) commitGroup(group []*uploadJob, recs []store.Record) {
	err := s.appendAndApply(group, recs)
	for _, j := range group {
		putBytes(j.payload)
		j.payload, j.recs = nil, nil
		if err != nil {
			s.finishJob(j, UploadResponse{}, err)
			continue
		}
		if cur := s.currentEngine(); cur.epoch != j.eng.epoch && cur.auditor != nil && len(j.commit.Frags) > 0 {
			// A retrain pass swapped the engine after this upload loaded its
			// protector: the re-audit cannot have covered these fragments
			// (they were not committed yet) and they were admitted by the
			// stale verifier, so judge them here against the current attacks
			// (see audit.go). Removal by seq is idempotent, so overlapping
			// with a concurrent audit pass is harmless.
			s.auditShardFrags(s.shard(j.trace.User), cur.auditor, j.commit.Frags)
		}
		s.finishJob(j, j.resp, nil)
	}
}

// appendAndApply is commitGroup's critical section: append the group's
// records as one frame, then fold every commit into the shards, the
// dedupe window and the job store — all under one read-hold of the
// consistency barrier, so a checkpoint sees a group applied whole or
// not at all.
func (s *Server) appendAndApply(group []*uploadJob, recs []store.Record) error {
	s.storeGate.RLock()
	defer s.storeGate.RUnlock()
	if s.store != nil {
		start := s.clk.Now()
		err := s.store.Append(recs...)
		s.lastAppend.Store(int64(s.clk.Since(start)))
		if err != nil {
			return &storageError{err: err}
		}
		s.commitGroups.Add(1)
		s.commits.Add(int64(len(group)))
	}
	for _, j := range group {
		s.applyCommit(durable{}, j)
	}
	return nil
}

// applyCommit folds a staged commit into the in-memory state. Callers
// hold storeGate.RLock when a store is configured. Completion order is
// load-bearing: shard first, then the idempotency entry, then the job
// — the same monotone order the snapshot capture relies on (see
// captureState).
func (s *Server) applyCommit(d durable, j *uploadJob) {
	s.foldCommit(d, &j.commit)
	if j.idem != nil {
		s.idem.complete(d, j.idem, j.resp)
	}
	if j.id != "" {
		s.jobs.setDone(d, j.id, j.resp)
	}
}

// foldCommit is the one state transition of an upload commit, live or
// replayed from the WAL: the uploader's accounting, the published
// fragments, the raw history, and the seq and pseudonym watermarks
// (max semantics, so a live commit whose numbers came from the atomics
// leaves them as they are).
func (s *Server) foldCommit(d durable, c *walUploadCommit) {
	if c.User == "" {
		return
	}
	sh := s.shard(c.User)
	sh.mu.Lock()
	us, ok := sh.users[c.User]
	if !ok {
		us = &UserStats{}
		sh.users[c.User] = us
	}
	us.Uploads++
	us.RecordsIn += c.RecordsIn
	us.RecordsPublished += c.Accepted
	us.RecordsRejected += c.Rejected
	us.Pieces += len(c.Frags)
	if len(c.History) > 0 && s.opts.Retrainer != nil && s.opts.HistoryCap > 0 {
		// The raw chunk joins the user's bounded history: it is what a
		// real adversary could have collected by now, so it is what the
		// next retrain pass must train against (§6 dynamic protection).
		// The history keeps the commit's own array — the chunk's parsed
		// records, or a replayed record's decoded ones — as a segment.
		// The generation bump lets the periodic loop skip ticks where
		// nothing new arrived.
		sh.recordHistory(d, c.User, c.History, s.opts.HistoryCap)
		s.histGen.Add(1)
	}
	sh.published = append(sh.published, c.Frags...)
	sh.mu.Unlock()
	var maxSeq int64
	for _, f := range c.Frags {
		maxSeq = max(maxSeq, f.Seq)
	}
	storeMax(&s.fragSeq, maxSeq)
	storeMax(&s.pseudo, c.Pseudo)
}

// finishJob delivers a completed job's outcome. Successful commits were
// already published to the idempotency window and job store by
// applyCommit; failures release the key (the retry must re-execute —
// nothing was committed) and, for async jobs, persist the terminal
// failure best-effort so pollers see it across a restart.
func (s *Server) finishJob(j *uploadJob, resp UploadResponse, err error) {
	if err == nil {
		if j.done != nil {
			j.done <- uploadOutcome{resp: resp}
		}
		return
	}
	if j.idem != nil {
		s.idem.release(j.trace.User, j.idemKey, j.idem, err)
	}
	if j.done != nil {
		j.done <- uploadOutcome{err: err}
		return
	}
	s.jobs.setFailed(j.id, err)
	s.appendBestEffort(recJobTerminal, JobStatus{
		ID: j.id, User: j.trace.User, State: JobFailed, Error: err.Error(),
	})
}

// quarantineAudited logs a re-audit's quarantine and applies it under one
// read-hold of the consistency barrier, so a checkpoint cannot capture
// the removal before its record. The record is advisory: a crash before
// it lands re-runs the audit on recovery, which re-condemns the same
// fragments. So a refused append still mints the witness, and the
// refusal goes to the persistence health (see noteAppend).
func (s *Server) quarantineAudited(seqs []int64) int {
	s.storeGate.RLock()
	defer s.storeGate.RUnlock()
	if s.store != nil {
		rec, err := encodeRec(recQuarantine, walQuarantine{Seqs: seqs})
		if err == nil {
			err = s.store.Append(rec)
		}
		s.noteAppend(err)
	}
	return s.quarantine(durable{}, seqs)
}

// appendBestEffort appends a record whose loss a crash can tolerate
// (failed jobs, retrain counters): the effect is applied regardless,
// and the periodic checkpoint will persist it via the snapshot. The
// storage error, if any, surfaces through the checkpoint health in
// /v2/stats rather than failing the caller.
func (s *Server) appendBestEffort(typ byte, v any) {
	if s.store == nil {
		return
	}
	s.storeGate.RLock()
	defer s.storeGate.RUnlock()
	rec, err := encodeRec(typ, v)
	if err == nil {
		err = s.store.Append(rec)
	}
	s.noteAppend(err)
}

// ---------------------------------------------------------------------------
// Recovery.

// Recover loads the configured store and rebuilds the acknowledged
// state: the latest snapshot, then every record appended after it, in
// order. Call exactly once, after New and before serving traffic. It
// also starts the background checkpoint loop (see checkpointLoop);
// starting it here rather than in New means a half-recovered server can
// never compact pre-recovery emptiness over a real log. For the same
// reason the server counts as recovered only once this has succeeded: a
// store that cannot be read, or a snapshot this binary cannot decode
// (torn, checksum mismatch, written by a newer version), fails here, and
// from then on Checkpoint refuses and Close releases the store without
// writing to it — the state that could not be read stays on disk as it
// was. When a Retrainer is configured and the restored state counts a
// retrain pass, Recover runs one more over the restored history before
// it returns (see retrainPass); if that pass fails, so does Recover.
func (s *Server) Recover() error {
	if s.store == nil {
		return errors.New("service: Recover without a store configured")
	}
	if !s.recoverCalled.CompareAndSwap(false, true) {
		return errors.New("service: Recover called twice")
	}
	snap, recs, err := s.store.Load()
	if err != nil {
		return &storageError{err: err}
	}
	if len(snap) > 0 {
		if err := s.applySnapshot(durable{}, snap); err != nil {
			return err
		}
	}
	for _, r := range recs {
		s.applyRecord(durable{}, r)
	}
	if s.opts.Retrainer != nil && s.retrains.Load() > 0 {
		// The restored history already trained the engine the node
		// served before the restart; rebuild it before serving.
		s.retrainMu.Lock()
		_, err := s.retrainPass(true)
		s.retrainMu.Unlock()
		if err != nil {
			return fmt.Errorf("service: restoring the retrained engine: %w", err)
		}
	}
	s.recovered.Store(true)
	if s.opts.CheckpointInterval > 0 {
		s.ckptStop = make(chan struct{})
		s.ckptDone = make(chan struct{})
		go s.checkpointLoop(s.opts.CheckpointInterval)
	}
	return nil
}

// applyRecord replays one WAL record. Records are CRC-verified by the
// store, so a payload that fails to decode is a schema difference, not
// corruption — it is skipped, keeping recovery forward compatible.
func (s *Server) applyRecord(d durable, r store.Record) {
	switch r.Type {
	case recUploadCommit:
		if c, err := decodeUploadCommit(r.Payload); err == nil {
			s.foldCommit(d, &c)
		}
	case recIdemComplete:
		var pe persistedIdem
		if json.Unmarshal(r.Payload, &pe) == nil {
			s.idem.applyRestored(d, pe)
		}
	case recJobTerminal:
		var js JobStatus
		if json.Unmarshal(r.Payload, &js) == nil {
			s.jobs.applyTerminal(d, js)
		}
	case recQuarantine:
		var q walQuarantine
		if json.Unmarshal(r.Payload, &q) == nil {
			s.quarantine(d, q.Seqs)
		}
	case recRetrainEpoch:
		var rr walRetrain
		if json.Unmarshal(r.Payload, &rr) == nil {
			storeMax(&s.retrains, rr.Retrains)
		}
	}
}

// ---------------------------------------------------------------------------
// Checkpointing.

// Checkpoint compacts the log into a fresh snapshot now: fence the log
// (Mark) and capture the state under the write side of the consistency
// barrier — slice headers only, no record is copied or encoded there —
// then, with commits flowing again, encode the snapshot, install it and
// prune the covered log. Safe to call concurrently with uploads.
func (s *Server) Checkpoint() error {
	if s.store == nil {
		return errors.New("service: Checkpoint without a store configured")
	}
	if !s.recovered.Load() {
		return errors.New("service: Checkpoint without a successful Recover")
	}
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	start := s.clk.Now()
	s.storeGate.Lock()
	pos, err := s.store.Mark()
	if err != nil {
		s.storeGate.Unlock()
		s.notePersist(err, 0, 0)
		return err
	}
	state := s.captureState()
	s.storeGate.Unlock()
	data := encodeSnapshot(&state)
	err = s.store.Compact(data, pos)
	s.notePersist(err, s.clk.Since(start), len(data))
	return err
}

// checkpointLoop compacts periodically on the injected clock. A failing
// checkpoint (disk full, dead volume) is retried with doubling backoff
// — capped, forever: the WAL keeps every commit durable meanwhile, so
// the only cost of a long outage is a longer replay. Health (count,
// failures, last error, age of the last success) is surfaced in
// /v2/stats.
func (s *Server) checkpointLoop(interval time.Duration) {
	defer close(s.ckptDone)
	ticker := s.clk.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C():
			if s.store.NeedsCompaction() {
				s.checkpointWithRetry()
			}
			// The tick counter is the test rendezvous: once it advances,
			// this tick's decision (skip or checkpoint, retries included)
			// is fully settled.
			s.ckptTicks.Add(1)
		case <-s.ckptStop:
			return
		}
	}
}

// checkpointWithRetry drives one checkpoint to success or shutdown.
func (s *Server) checkpointWithRetry() {
	backoff := time.Second
	for {
		if s.Checkpoint() == nil {
			return
		}
		select {
		case <-s.clk.After(backoff):
		case <-s.ckptStop:
			return
		}
		backoff *= 2
		if backoff > 30*time.Second {
			backoff = 30 * time.Second
		}
	}
}

// persistState tracks checkpoint and best-effort-append health for
// /v2/stats.
type persistState struct {
	checkpoints int64
	failures    int64
	lastErr     string
	lastOK      time.Time
	hasOK       bool
	// lastTook and lastBytes describe the last successful checkpoint:
	// Mark to installed snapshot on the injected clock, and the
	// snapshot's size.
	lastTook  time.Duration
	lastBytes int
	// appendFailures counts best-effort record appends (quarantines,
	// failed-job terminals, retrain epochs) the store refused;
	// lastAppendErr is the most recent refusal. Best-effort means the
	// effect applies anyway — not that the refusal is allowed to
	// vanish: a poisoned WAL must surface in the health section.
	appendFailures int64
	lastAppendErr  string
}

// noteAppend records a best-effort append outcome. Only failures are
// tracked: successes are the norm and carry no signal.
func (s *Server) noteAppend(err error) {
	if err == nil {
		return
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	s.persist.appendFailures++
	s.persist.lastAppendErr = err.Error()
}

// notePersist records one checkpoint outcome; took and size describe a
// successful one.
func (s *Server) notePersist(err error, took time.Duration, size int) {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if err != nil {
		s.persist.failures++
		s.persist.lastErr = err.Error()
		return
	}
	s.persist.checkpoints++
	s.persist.lastErr = ""
	s.persist.lastOK = s.clk.Now()
	s.persist.hasOK = true
	s.persist.lastTook, s.persist.lastBytes = took, size
}

// PersistenceStats reports durability health on /v2/stats when a store
// is configured.
type PersistenceStats struct {
	// Store names the backend ("wal").
	Store string `json:"store"`
	// Checkpoints and CheckpointFailures count snapshot compactions.
	Checkpoints        int64 `json:"checkpoints"`
	CheckpointFailures int64 `json:"checkpoint_failures"`
	// LastError is the most recent checkpoint failure ("" after a
	// success).
	LastError string `json:"last_error,omitempty"`
	// LastSuccessAgeMillis is the age of the last successful
	// checkpoint; -1 means none has succeeded yet.
	LastSuccessAgeMillis int64 `json:"last_success_age_ms"`
	// AppendFailures counts best-effort WAL appends (quarantine
	// records, failed-job terminals, retrain epochs) the store
	// refused; LastAppendError is the most recent refusal. Both are
	// omitted while zero, keeping the historical payload shape on
	// healthy stores.
	AppendFailures  int64  `json:"append_failures,omitempty"`
	LastAppendError string `json:"last_append_error,omitempty"`
	// CommitGroups counts the durable appends of the upload commit path
	// — one frame and one sync each — and Commits the uploads they
	// carried: Commits / CommitGroups is chunks per sync, above 1 when
	// batch commit windows are sharing syncs. Omitted while zero.
	CommitGroups int64 `json:"commit_groups,omitempty"`
	Commits      int64 `json:"commits,omitempty"`
	// LastCheckpointMillis is how long the last successful checkpoint
	// took, fence to installed snapshot, and LastCheckpointBytes the size
	// of the snapshot it wrote. Omitted until one has succeeded.
	LastCheckpointMillis float64 `json:"last_checkpoint_ms,omitempty"`
	LastCheckpointBytes  int     `json:"last_checkpoint_bytes,omitempty"`
}

// StatsPayload is the GET /v2/stats body. The embedded ServerStats
// flattens; Persistence is omitted when no store is configured and Node
// when no node ID is configured, so standalone servers keep the
// historical byte-identical shape.
type StatsPayload struct {
	ServerStats
	Persistence *PersistenceStats `json:"persistence,omitempty"`
	Node        *NodeStats        `json:"node,omitempty"`
}

func (s *Server) statsPayload() StatsPayload {
	out := StatsPayload{ServerStats: s.Stats()}
	if s.node != nil {
		ns := s.NodeStats()
		out.Node = &ns
	}
	if s.store == nil {
		return out
	}
	ps := &PersistenceStats{Store: s.store.Name(), LastSuccessAgeMillis: -1,
		CommitGroups: s.commitGroups.Load(), Commits: s.commits.Load()}
	s.persistMu.Lock()
	ps.Checkpoints = s.persist.checkpoints
	ps.CheckpointFailures = s.persist.failures
	ps.LastError = s.persist.lastErr
	ps.AppendFailures = s.persist.appendFailures
	ps.LastAppendError = s.persist.lastAppendErr
	if s.persist.hasOK {
		ps.LastSuccessAgeMillis = s.clk.Since(s.persist.lastOK).Milliseconds()
		ps.LastCheckpointMillis = millis(s.persist.lastTook)
		ps.LastCheckpointBytes = s.persist.lastBytes
	}
	s.persistMu.Unlock()
	out.Persistence = ps
	return out
}

// storageOutcome maps a storage refusal onto the wire: retryable 503
// with the stable storage code, never a fatal-looking 500.
func storageOutcome(err error) BatchResult {
	return BatchResult{Status: http.StatusServiceUnavailable, Code: CodeStorage,
		Error: err.Error(), RetryAfterSeconds: 1}
}

// isStorageError reports whether err is a commit refused by the
// durability layer.
func isStorageError(err error) bool {
	var se *storageError
	return errors.As(err, &se)
}

// storeMax folds a replayed counter value in with max semantics (the
// same value may arrive via both a snapshot and a record).
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
