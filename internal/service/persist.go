package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"mood/internal/store"
	"mood/internal/trace"
)

// persistedState is a snapshot of a Server: what captureState captures,
// what the snapshot codec (walcodec.go) writes and reads, and — through
// its JSON tags — the shape of the legacy JSON snapshot, which still
// loads (read-only) and which `moodctl snapshot` prints. Shards are
// merged on save and redistributed on load. The legacy decoding stays
// backward compatible: snapshots written before the dynamic-protection
// subsystem carry `published` (bare traces, no owners) instead of
// `fragments`, and no history or idempotency sections; snapshots written
// before the durability layer carry no fragment seqs (reissued on load)
// and no frag_seq watermark. The `stats` section they all carry was
// never read — resetShards rederives it from the user accounting.
type persistedState struct {
	// Published is the legacy fragment list (read-only; written by
	// snapshots predating owner tracking).
	Published []trace.Trace             `json:"published,omitempty"`
	Fragments []publishedFrag           `json:"fragments,omitempty"`
	Users     map[string]*UserStats     `json:"users"`
	Pseudo    int                       `json:"pseudo"`
	History   map[string][]trace.Record `json:"history,omitempty"`
	// Idempotency carries the completed dedupe entries so a keyed retry
	// that straddles a restart replays the original outcome instead of
	// committing the chunk twice.
	Idempotency []persistedIdem `json:"idempotency,omitempty"`
	// Jobs carries the terminal (done/failed) async job handles so
	// GET /v2/jobs/{id} keeps answering for completed uploads after a
	// restart. Queued/running handles are still process-local: they
	// drain before the shutdown snapshot, and a periodic snapshot
	// cannot vouch for them.
	Jobs     []JobStatus `json:"jobs,omitempty"`
	Retrains int64       `json:"retrains,omitempty"`
	// FragSeq is the sequence watermark at capture time, so a reboot
	// never reissues a seq a WAL record might still name.
	FragSeq int64 `json:"frag_seq,omitempty"`
}

// captureState captures the server's state at one point in time — the
// shared capture of SaveState and the store checkpoint; Checkpoint
// calls it under the write side of the consistency barrier. It copies
// no record: the state's record arrays are shared with the live server
// by slice header (see fullSnapshot), so the caller encodes it after
// every lock is released.
func (s *Server) captureState() persistedState {
	// Capture order is monotone with the pipeline's completion order:
	// jobs first, then the idempotency table, then the shards. A job is
	// marked terminal only after its idempotency entry completed, and
	// an entry completes only after the commit — so every terminal job
	// in the earlier capture has its entry in the next one, and every
	// entry has its records in the shard snapshot. The opposite order
	// could persist an entry whose commit the shard snapshot missed —
	// after a restore, the client's retry would replay a 200 for
	// records that are in neither the dataset nor the accounting
	// (silent loss behind an OK). This order's only tear is a commit
	// without its entry, which makes the retry re-execute: a possible
	// duplicate, which is the pipeline's documented at-least-once
	// behaviour for unkeyed retries anyway. (Under the storeGate write
	// lock the capture is a single point in time and even that tear
	// cannot happen.)
	jobs := s.jobs.terminal()
	idem := s.idem.snapshot()
	published, history, users := s.fullSnapshot()
	return persistedState{
		Fragments:   published,
		Users:       users,
		Pseudo:      int(s.pseudo.Load()),
		History:     history,
		Idempotency: idem,
		Jobs:        jobs,
		Retrains:    s.retrains.Load(),
		FragSeq:     s.fragSeq.Load(),
	}
}

// SaveState writes the server's published dataset and accounting to
// path atomically (temp file, fsync, rename, directory sync), in the
// snapshot codec's binary form. Operators call it on shutdown or from a
// periodic snapshot loop; servers with a configured Store checkpoint
// through it instead (see durable.go). Concurrent calls are serialised
// so a slow earlier save cannot rename an older snapshot over a newer
// one.
func (s *Server) SaveState(path string) error {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	state := s.captureState()
	if err := store.AtomicWriteFile(nil, path, encodeSnapshot(&state)); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

// decodeState reads a snapshot in either form, told apart by the first
// bytes: the snapshot codec's magic, or the `{` of the legacy JSON
// snapshot (read-only: nothing writes it any more). Anything else is an
// error — a snapshot this binary cannot read must stop the boot, not
// boot an empty server over it.
func decodeState(data []byte) (persistedState, error) {
	if bytes.HasPrefix(data, snapshotMagic[:]) {
		return decodeSnapshot(data)
	}
	var state persistedState
	if len(data) == 0 || data[0] != '{' {
		return state, errors.New("service: decoding state: neither a binary nor a legacy JSON snapshot")
	}
	if err := json.Unmarshal(data, &state); err != nil {
		return state, fmt.Errorf("service: decoding state: %w", err)
	}
	return state, nil
}

// SnapshotJSON renders a snapshot of either form in the legacy JSON
// shape, for operators who read state files with jq (`moodctl
// snapshot`). No server path calls it: servers write the binary form
// only.
func SnapshotJSON(data []byte) ([]byte, error) {
	state, err := decodeState(data)
	if err != nil {
		return nil, err
	}
	return json.Marshal(state)
}

// applySnapshot replaces the server's state with a decoded snapshot.
// The snapshot is decoded and checked whole before anything is applied.
func (s *Server) applySnapshot(data []byte) error {
	state, err := decodeState(data)
	if err != nil {
		return err
	}
	if state.Users == nil {
		state.Users = map[string]*UserStats{}
	}
	frags := state.Fragments
	maxSeq := state.FragSeq
	for _, f := range frags {
		if f.Seq > maxSeq {
			maxSeq = f.Seq
		}
	}
	for _, tr := range state.Published {
		// Legacy snapshot: the owner was never written, so these
		// fragments stay published but cannot be re-audited.
		frags = append(frags, publishedFrag{Trace: tr})
	}

	// The watermark must be in place before resetShards reissues seqs
	// for legacy fragments, or a fresh seq could collide with a durable
	// one a WAL record still names.
	s.fragSeq.Store(maxSeq)
	s.resetShards(frags, state.History, state.Users)
	s.idem.restore(state.Idempotency)
	s.jobs.restore(state.Jobs)
	s.pseudo.Store(int64(state.Pseudo))
	s.retrains.Store(state.Retrains)
	return nil
}

// LoadState replaces the server's published dataset and accounting with
// a snapshot written by SaveState. Call before serving traffic.
func (s *Server) LoadState(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return s.applySnapshot(data)
}
