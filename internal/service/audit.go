package service

import (
	"sort"

	"mood/internal/trace"
)

// The re-audit pass: after a retrain swaps fresh attacks in, every
// fragment already published is re-checked against them. A fragment the
// retrained attacks link back to its uploader has silently become
// re-identifiable — exactly the §6 failure mode the offline RunDynamic
// experiment measures as "leaks" — and is quarantined: removed from the
// published dataset and counted in the global and per-user stats.
//
// Locking: identification is CPU-heavy (three attacks per fragment), so
// the pass snapshots each shard's fragments under the lock, evaluates
// them unlocked while uploads keep committing, then re-locks to remove
// the condemned fragments by their Seq handle. An upload that loaded
// the pre-swap engine and commits after this pass snapshotted its shard
// is caught by the commit path itself: runJob notices the epoch changed
// under it and re-audits its own fragments against the current auditor.
// Removal by seq is idempotent, so the two paths can overlap freely;
// Retrain serialises full passes against each other.
//
// Judging is batched: the whole pass — all shards — is assembled into
// one task list and handed to the auditor's predicate in one call, which
// judges the fragments in parallel (see attack.Set.ReIdentifiesBatch).

// auditPublished re-checks every published fragment and quarantines
// the vulnerable ones. It returns how many fragments were audited and
// how many were pulled.
func (s *Server) auditPublished(a Auditor) (audited, quarantined int) {
	var frags []publishedFrag
	for i := range s.shards {
		s.shards[i].locked(func(st *shardState) {
			// One by one: on retrain-audit-node a bulk append per shard
			// allocates about one more copy of the list per pass.
			for _, f := range st.published {
				frags = append(frags, f)
			}
		})
	}
	return s.auditFrags(a, frags)
}

// auditShardFrags re-audits specific fragments of one shard — the
// commit path uses it for fragments that raced an engine swap.
// Fragments already removed by a concurrent pass are skipped.
func (s *Server) auditShardFrags(sh *stateShard, a Auditor, frags []publishedFrag) (audited, quarantined int) {
	want := make(map[int64]bool, len(frags))
	for _, f := range frags {
		want[f.Seq] = true
	}
	var live []publishedFrag
	sh.locked(func(st *shardState) {
		for _, f := range st.published {
			if want[f.Seq] {
				live = append(live, f)
			}
		}
	})
	return s.auditFrags(a, live)
}

// auditFrags judges every fragment in one pass, then quarantines the
// condemned ones: one best-effort WAL record for the whole pass, then
// the same removal its replay performs.
func (s *Server) auditFrags(a Auditor, frags []publishedFrag) (audited, quarantined int) {
	if len(frags) == 0 {
		return 0, 0
	}
	var seqs []int64
	for i, hit := range s.judgeFrags(a, frags) {
		if hit {
			seqs = append(seqs, frags[i].Seq)
		}
	}
	if len(seqs) == 0 {
		return len(frags), 0
	}

	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return len(frags), s.quarantineAudited(seqs)
}

// judgeFrags evaluates the protection predicate for every fragment of
// the pass in one auditor call. The published label is a pseudonym; the
// attacks judge the anonymous trace against the true owner, as in
// eval.RunDynamic's oracle.
func (s *Server) judgeFrags(a Auditor, frags []publishedFrag) []bool {
	ts := make([]trace.Trace, len(frags))
	owners := make([]string, len(frags))
	for i, f := range frags {
		ts[i] = f.Trace.WithUser("")
		owners[i] = f.Owner
	}
	hits := make([]bool, len(frags))
	for i, r := range a.ReIdentifiesBatch(ts, owners) {
		hits[i] = r.Hit
	}
	return hits
}

// quarantine is the one removal of condemned fragments (by seq), for
// the live audit pass and for WAL quarantine-record replay alike: it
// removes them wherever they live and returns how many it removed.
// Removal by seq is idempotent, so a record covering fragments a
// snapshot already dropped is harmless.
func (s *Server) quarantine(d durable, seqs []int64) (quarantined int) {
	if len(seqs) == 0 {
		return 0
	}
	condemned := make(map[int64]bool, len(seqs))
	for _, q := range seqs {
		condemned[q] = true
	}
	for i := range s.shards {
		s.shards[i].locked(func(st *shardState) {
			if n := st.removeCondemned(d, condemned); n > 0 {
				// Quarantines change the published dataset without
				// minting new fragment sequence numbers; the generation
				// bump invalidates the dataset ETag and assembly cache
				// (see dataset.go).
				s.quarGen.Add(1)
				quarantined += n
			}
		})
	}
	return quarantined
}

// removeCondemned drops the condemned fragments (by seq) from one shard
// and updates their owners' quarantine accounting.
func (st *shardState) removeCondemned(_ durable, condemned map[int64]bool) (quarantined int) {
	kept := st.published[:0]
	for _, f := range st.published {
		if !condemned[f.Seq] {
			kept = append(kept, f)
			continue
		}
		quarantined++
		// The owner's accounting lives in the same shard as the
		// fragment (both keyed by the uploader ID).
		if us, ok := st.users[f.Owner]; ok {
			us.PiecesQuarantined++
			us.RecordsQuarantined += f.Trace.Len()
		}
	}
	// Zero the tail so quarantined fragment traces are not pinned by
	// the backing array.
	for j := len(kept); j < len(st.published); j++ {
		st.published[j] = publishedFrag{}
	}
	st.published = kept
	return quarantined
}
