// Online dynamic protection — the paper's §6 extension brought to the
// serving tier. The offline experiment (internal/eval.RunDynamic) showed
// that attacks retrained on the history an adversary accumulates over
// time re-identify fragments a stale verifier admitted; here the running
// server closes the same gap:
//
//  1. Every accepted upload's raw records join a bounded per-user
//     history (see shardState.history) — the growing H.
//  2. A retrain pass (periodic ticker and/or POST /v2/admin/retrain)
//     hands that history to the configured Retrainer, which rebuilds the
//     protection engine — in production, mood.Pipeline.RetrainWith, which
//     retrains the attack set and HMC background on the pipeline's
//     initial background followed by the history. A reboot whose
//     restored state counts a pass runs one more inside Recover, so the
//     node serves the adversary it had before the restart.
//  3. The fresh engine is hot-swapped into the upload path atomically
//     (Server.protector is an atomic.Pointer): uploads in flight finish
//     on the engine they loaded, new uploads use the retrained one, and
//     no request is ever rejected or delayed by the swap.
//  4. A re-audit pass re-runs the protection predicate
//     (ReIdentifiesBatch) over every published fragment against the
//     retrained attacks and quarantines the ones that have become
//     vulnerable: they leave /v2/dataset and are counted in /v2/stats.
//     Admission control becomes continuous risk re-assessment.
package service

import (
	"errors"
	"net/http"
	"time"

	"mood/internal/attack"
	"mood/internal/trace"
)

// DefaultHistoryCap bounds the per-user raw upload history (in records)
// the retrainer learns from when Options.HistoryCap is left zero.
const DefaultHistoryCap = 50000

// Auditor re-checks published fragments against the current attack
// set: for every (anonymised trace, true user) pair it reports whether
// any attack links the trace back to the user. A re-audit pass judges
// all its fragments in one call. It must be safe for concurrent calls —
// the commit path re-audits fragments that raced an engine swap while a
// pass may be running (trained attacks are immutable, so mood.Pipeline
// and attack.Set satisfy this).
type Auditor interface {
	ReIdentifiesBatch(ts []trace.Trace, users []string) []attack.ReIdent
}

// BatchAuditor is an alias of Auditor, kept for callers that still
// assert the batch-capable name.
type BatchAuditor = Auditor

// Retrainer rebuilds the protection engine from the accumulated raw
// upload history (one merged, time-sorted trace per user). It returns
// the engine to hot-swap in and the auditor to re-audit the published
// dataset with; a nil auditor skips the re-audit pass. Implementations
// must not mutate the engine currently serving — the old protector keeps
// running until the swap. The history's record arrays are shared with
// the server's state, not copied: they are read-only, and an engine may
// keep them.
type Retrainer interface {
	Retrain(history []trace.Trace) (Protector, Auditor, error)
}

// RetrainerFunc adapts a function to the Retrainer interface.
type RetrainerFunc func(history []trace.Trace) (Protector, Auditor, error)

// Retrain implements Retrainer.
func (f RetrainerFunc) Retrain(history []trace.Trace) (Protector, Auditor, error) {
	return f(history)
}

// RetrainReport is the outcome of one retrain + re-audit pass, returned
// by POST /v2/admin/retrain.
type RetrainReport struct {
	// HistoryUsers and HistoryRecords describe the training input.
	HistoryUsers   int `json:"history_users"`
	HistoryRecords int `json:"history_records"`
	// Audited counts published fragments re-checked against the
	// retrained attacks; Quarantined counts the ones found vulnerable
	// and pulled from the dataset.
	Audited     int `json:"audited"`
	Quarantined int `json:"quarantined"`
	// DurationMillis is the wall-clock cost of the whole pass. The swap
	// itself is a single pointer store; uploads never wait on it.
	DurationMillis int64 `json:"duration_ms"`
	// TrainMillis and AuditMillis are the pass's two phases on the same
	// clock: rebuilding the engine (Retrainer.Retrain) and re-auditing
	// the published dataset. Fractional milliseconds; omitted when zero.
	TrainMillis float64 `json:"train_ms,omitempty"`
	AuditMillis float64 `json:"audit_ms,omitempty"`
}

// ErrRetrainInProgress is returned by Retrain when another pass is
// already running. Passes coalesce instead of queueing: a retrain is
// CPU-heavy and back-to-back passes over near-identical inputs would
// just starve upload protection.
var ErrRetrainInProgress = errors.New("service: a retrain pass is already running")

// Retrain runs one retrain + hot-swap + re-audit pass synchronously.
// Only one pass runs at a time — a second caller gets
// ErrRetrainInProgress instead of queueing. Uploads are never blocked:
// they keep executing on the previous engine until the atomic swap and
// on the new one after it.
func (s *Server) Retrain() (RetrainReport, error) {
	if s.opts.Retrainer == nil {
		return RetrainReport{}, errors.New("service: no retrainer configured")
	}
	if !s.retrainMu.TryLock() {
		return RetrainReport{}, ErrRetrainInProgress
	}
	defer s.retrainMu.Unlock()
	return s.retrainPass(false)
}

// retrainPass is one pass under retrainMu: train through the Retrainer
// on the history, swap the engine in, re-audit the published dataset.
// A restore pass (Recover's) brings back the engine of the passes the
// restored state already counts: it skips an empty history and neither
// counts a retrain nor logs an epoch.
func (s *Server) retrainPass(restore bool) (RetrainReport, error) {
	began := s.clk.Now()
	gen := s.histGen.Load()

	history := s.historySnapshot()
	if restore && len(history) == 0 {
		return RetrainReport{}, nil
	}
	var report RetrainReport
	report.HistoryUsers = len(history)
	for _, h := range history {
		report.HistoryRecords += h.Len()
	}

	phase := s.clk.Now()
	protector, auditor, err := s.opts.Retrainer.Retrain(history)
	if err != nil {
		return RetrainReport{}, err
	}
	report.TrainMillis = millis(s.clk.Since(phase))
	old := s.currentEngine()
	next := &engineState{p: old.p, auditor: auditor, epoch: old.epoch + 1}
	if protector != nil {
		next.p = protector
	}
	// The swap is one pointer store: uploads in flight keep the engine
	// they loaded (their commits self-audit if they land after this),
	// new uploads pick up the retrained one immediately.
	s.engine.Store(next)
	if auditor != nil {
		phase = s.clk.Now()
		report.Audited, report.Quarantined = s.auditPublished(auditor)
		report.AuditMillis = millis(s.clk.Since(phase))
	}
	if !restore {
		s.retrains.Add(1)
		// Epoch records are best-effort: the count is also carried by
		// every snapshot, so a lost record costs at most one epoch of
		// drift until the next checkpoint.
		s.appendBestEffort(recRetrainEpoch, walRetrain{Retrains: s.retrains.Load()})
	}
	s.lastTrained.Store(gen)
	report.DurationMillis = s.clk.Since(began).Milliseconds()
	return report, nil
}

// millis renders a duration as fractional milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// retrainLoop drives periodic retraining until Close. Ticks where no
// new history arrived since the last successful pass are skipped: the
// rebuilt engine would be identical, so the pass would be pure wasted
// CPU. The admin endpoint bypasses this check — an operator asking for
// a pass gets one.
func (s *Server) retrainLoop(interval time.Duration) {
	defer close(s.retrainDone)
	ticker := s.clk.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C():
			if s.retrains.Load() > 0 && s.histGen.Load() == s.lastTrained.Load() {
				s.retrainTicks.Add(1)
				continue
			}
			// A failing retrain keeps the current engine serving; the
			// next tick (or the admin endpoint) retries. The error is
			// surfaced on the admin path, where a caller can see it.
			s.Retrain() //nolint:errcheck
			s.retrainTicks.Add(1)
		case <-s.retrainStop:
			return
		}
	}
}

// handleRetrain is POST /v2/admin/retrain: trigger a retrain +
// re-audit pass now and report what it did. The route sits behind the
// same middleware chain as everything else, so bearer-token auth (when
// configured) covers it.
func (s *Server) handleRetrain(w http.ResponseWriter, r *http.Request) {
	if s.opts.Retrainer == nil {
		writeError(w, http.StatusNotFound, CodeRetrainMissing,
			"retraining not configured (start the server with a Retrainer)")
		return
	}
	report, err := s.Retrain()
	if errors.Is(err, ErrRetrainInProgress) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, CodeRetrainInProgress, err.Error())
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "retrain failed: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, report)
}
