package service

import "encoding/json"

// persistedState is a snapshot of a Server: what captureState captures
// and what the snapshot codec (walcodec.go) writes and reads. Its JSON
// tags are the shape `moodctl snapshot` prints. Shards are merged on
// capture and redistributed on load; no global stats are stored — they
// are the sum of the user accounting (see Server.Stats).
type persistedState struct {
	Fragments []publishedFrag       `json:"fragments,omitempty"`
	Users     map[string]*UserStats `json:"users"`
	Pseudo    int                   `json:"pseudo"`
	History   map[string]segments   `json:"history,omitempty"`
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

// captureState captures the server's state at one point in time for a
// checkpoint, which calls it under the write side of the consistency
// barrier. It copies no record: the state's record arrays are shared
// with the live server by slice header, each history as a clone of its
// segment list (see fullSnapshot), so the caller encodes it after every
// lock is released.
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

// SnapshotJSON renders a binary snapshot as JSON, for operators who
// read state files with jq (`moodctl snapshot`). No server path calls
// it: servers write and read the binary form only.
func SnapshotJSON(data []byte) ([]byte, error) {
	state, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	return json.Marshal(state)
}

// applySnapshot installs a decoded snapshot into the fresh server that
// Recover runs on. The snapshot is decoded and checked whole before
// anything is applied. Idempotency entries and terminal jobs go through
// the same appliers as their WAL records: snapshot keys are unique and
// every entry is complete, so installing them one by one in snapshot
// order rebuilds both windows, eviction age included.
func (s *Server) applySnapshot(d durable, data []byte) error {
	state, err := decodeSnapshot(data)
	if err != nil {
		return err
	}
	maxSeq := state.FragSeq
	for _, f := range state.Fragments {
		maxSeq = max(maxSeq, f.Seq)
	}
	s.fragSeq.Store(maxSeq)
	s.resetShards(d, state.Fragments, state.History, state.Users)
	for _, pe := range state.Idempotency {
		s.idem.applyRestored(d, pe)
	}
	for _, j := range state.Jobs {
		s.jobs.applyTerminal(d, j)
	}
	s.pseudo.Store(int64(state.Pseudo))
	s.retrains.Store(state.Retrains)
	return nil
}
