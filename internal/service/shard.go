package service

import (
	"cmp"
	"encoding/json"
	"hash/fnv"
	"slices"
	"strings"
	"sync"

	"mood/internal/trace"
)

// numShards is the fan-out of the server state. Uploads from users that
// hash to different shards touch disjoint mutexes, so the hot path never
// serialises distinct participants. 16 comfortably exceeds the worker
// pool on typical hardware while keeping aggregation cheap.
const numShards = 16

// publishedFrag is one fragment of the published dataset together with
// the server-side provenance the wire never exposes: Owner is the true
// uploader (needed to re-audit the fragment against retrained attacks —
// ReIdentifies asks "does any attack link this trace back to its real
// user?"), Seq is a server-unique handle so an audit pass can evaluate
// fragments outside the shard lock and still remove exactly the ones it
// judged — and the fragment's durable name: keeping it stable across
// restarts lets WAL quarantine records name fragments a snapshot
// carried, and keeps the dataset ETag honest across a reboot. The same
// struct is the fragment's durable form in commit records and snapshots
// (Owner never leaves the server's own files); the JSON tags are what
// `moodctl snapshot` prints.
type publishedFrag struct {
	Seq   int64       `json:"seq,omitempty"`
	Trace trace.Trace `json:"trace"`
	Owner string      `json:"owner"`
}

// stateShard is one slice of the server state behind its mutex. The
// state is reached only through locked and lockAll, which hold the
// mutex for exactly the call: lockscope refuses any other selection of
// mu or st, so no code reads or writes a shard's maps without its lock.
type stateShard struct {
	mu sync.Mutex
	st shardState
}

// shardState is what a shard's mutex guards: the users that hash here,
// their accounting, the fragments they published and their raw upload
// history (the growing attacker-side knowledge the retrainer learns
// from). The global counters are the sum of every participant's
// accounting (see Stats). A *shardState lives only as a parameter of a
// function that runs under the lock — lockscope refuses a variable,
// field, result or captured closure that keeps one, and any shardState
// value but a literal — and such a function must not block.
type shardState struct {
	published []publishedFrag
	users     map[string]*UserStats
	history   map[string]*userHistory
}

// locked runs f on the shard's state under its lock: one short,
// CPU-only critical section on one shard.
func (sh *stateShard) locked(f func(st *shardState)) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f(&sh.st)
}

// lockAll takes every shard lock in index order, runs each pass over
// every shard in index order, and releases them: one point in time
// across the whole state. It is the only multi-shard acquisition, and
// so the only place two locks are held: every other path holds one
// shard at a time, and lockscope refuses a lock taken under another.
// Index order is one fixed order, so two lockAll calls cannot deadlock
// each other; a one-shard holder takes no second lock, so lockAll's
// wait for it ends.
func (s *Server) lockAll(passes ...func(i int, st *shardState)) {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	defer func() {
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
	}()
	for _, pass := range passes {
		for i := range s.shards {
			pass(i, &s.shards[i].st)
		}
	}
}

// segments is a record list held as the arrays it was accepted in, back
// to back. No record a segment covers is written again, so a list is
// shared by cloning its headers. Its JSON form is the one array.
type segments [][]trace.Record

func (segs segments) len() int {
	n := 0
	for _, seg := range segs {
		n += len(seg)
	}
	return n
}

// join returns the list as one array of exactly its length.
func (segs segments) join() []trace.Record {
	if segs.len() == 0 {
		return nil
	}
	recs := make([]trace.Record, 0, segs.len())
	for _, seg := range segs {
		recs = append(recs, seg...)
	}
	return recs
}

func (segs segments) MarshalJSON() ([]byte, error) { return json.Marshal(segs.join()) }

// userHistory is one user's raw upload history: the accepted uploads'
// own record arrays, oldest first, capacity clipped. Appends leave the
// head of the list as it was; the edits that change it — the cap
// dropping or re-slicing head segments, historySnapshot joining them —
// bump headEdits, so historySnapshot can tell a list it captured still
// starts as it did.
type userHistory struct {
	segs      segments
	headEdits int
}

// shardFor maps a user ID to its shard.
func shardFor(user string) int {
	h := fnv.New32a()
	h.Write([]byte(user)) //nolint:errcheck // fnv never fails
	return int(h.Sum32() % numShards)
}

func (s *Server) shard(user string) *stateShard {
	return &s.shards[shardFor(user)]
}

// Stats returns the global counters clients see on /v2/stats: the sum
// of every participant's accounting, one shard at a time under its
// lock, so the global view cannot disagree with /v2/users/{id}. The
// retrain counter lives outside the shards (a retrain pass is global,
// not per-user).
func (s *Server) Stats() ServerStats {
	var out ServerStats
	for i := range s.shards {
		s.shards[i].locked(func(st *shardState) {
			out.Users += len(st.users)
			out.PublishedTraces += len(st.published)
			for _, us := range st.users {
				out.Uploads += us.Uploads
				out.RecordsIn += us.RecordsIn
				out.RecordsPublished += us.RecordsPublished
				out.RecordsRejected += us.RecordsRejected
				out.RecordsQuarantined += us.RecordsQuarantined
				out.QuarantinedTraces += us.PiecesQuarantined
			}
		})
	}
	out.Retrains = int(s.retrains.Load())
	return out
}

// publishedSnapshot copies every shard's published fragments. Order is
// by shard then insertion, which deliberately does not reflect global
// upload order (the dataset endpoints reassemble it fresh anyway).
func (s *Server) publishedSnapshot() []trace.Trace {
	var out []trace.Trace
	for i := range s.shards {
		s.shards[i].locked(func(st *shardState) {
			for _, f := range st.published {
				out = append(out, f.Trace)
			}
		})
	}
	return out
}

// historySnapshot assembles the accumulated raw upload history as one
// time-sorted trace per user. This is what the retrainer trains on: the
// paper's H as it has grown since startup. The shard locks cover a map
// walk that captures each history by header: its one segment, or a
// clone of its segment list. A longer list is joined outside the locks,
// once: the array goes back in place of exactly the segments it joins,
// unless the head moved meanwhile, so the next pass shares it. The
// traces therefore share the shards' record arrays and are read-only;
// only a history uploaded out of time order is copied, to be sorted.
func (s *Server) historySnapshot() []trace.Trace {
	type join struct {
		h     *userHistory
		at    int
		segs  segments
		edits int
	}
	var out []trace.Trace
	var joins []join
	for i := range s.shards {
		s.shards[i].locked(func(st *shardState) {
			for u, h := range st.history {
				if len(h.segs) > 1 {
					joins = append(joins, join{h: h, at: len(out), segs: slices.Clone(h.segs), edits: h.headEdits})
				}
				out = append(out, trace.Trace{User: u, Records: h.segs[0]})
			}
		})
	}
	slices.SortFunc(joins, func(a, b join) int { return a.at - b.at }) // in out's order
	for _, j := range joins {
		t := &out[j.at]
		t.Records = j.segs.join()
		s.shard(t.User).locked(func(st *shardState) {
			if j.h.headEdits == j.edits && st.history[t.User] == j.h {
				j.h.segs[0] = t.Records
				j.h.segs = slices.Delete(j.h.segs, 1, len(j.segs))
				j.h.headEdits++
			}
		})
	}
	for i, h := range out {
		if !slices.IsSortedFunc(h.Records, func(a, b trace.Record) int { return cmp.Compare(a.TS, b.TS) }) {
			out[i] = trace.New(h.User, h.Records)
		}
	}
	slices.SortFunc(out, func(a, b trace.Trace) int { return strings.Compare(a.User, b.User) })
	return out
}

// fullSnapshot captures the fragment list, the user accounting and the
// per-user history under lockAll, so the persisted state is a single
// point in time: an upload committing concurrently is either entirely
// in the snapshot or entirely absent, never torn across sections.
//
// Only what is rewritten in place is copied — the fragment list
// (removeCondemned compacts it), the accounting structs and each
// history's segment list (headers only). Record arrays are captured by
// slice header: no record a segment or a fragment covers is written
// again, so the caller may read them after the locks are gone.
func (s *Server) fullSnapshot() (published []publishedFrag, history map[string]segments, users map[string]*UserStats) {
	nFrags := 0
	users, history = make(map[string]*UserStats), make(map[string]segments)
	s.lockAll(func(_ int, st *shardState) { nFrags += len(st.published) }, func(_ int, st *shardState) {
		if published == nil {
			published = make([]publishedFrag, 0, nFrags)
		}
		published = append(published, st.published...)
		for u, us := range st.users {
			cp := *us
			users[u] = &cp
		}
		for u, h := range st.history {
			history[u] = slices.Clone(h.segs)
		}
	})
	return published, history, users
}

// resetShards replaces the whole sharded state with a decoded snapshot,
// whose slices it takes over. The new shards' parts are built unlocked
// and swapped in under lockAll. No snapshot carries global stats: they
// are the sum of the user accounting. Fragment sequence numbers persist:
// WAL quarantine records name them across restarts.
func (s *Server) resetShards(_ durable, published []publishedFrag, history map[string]segments, users map[string]*UserStats) {
	var frags [numShards][]publishedFrag
	var accts [numShards]map[string]*UserStats
	var hists [numShards]map[string]*userHistory
	for i := range accts {
		accts[i], hists[i] = make(map[string]*UserStats), make(map[string]*userHistory)
	}
	for u, us := range users {
		cp := *us
		accts[shardFor(u)][u] = &cp
	}
	for _, f := range published {
		// Fragments live in their owner's shard (as the commit path
		// stores them), so a quarantine updates the fragment list and
		// the owner's accounting under one lock.
		k := shardFor(f.Owner)
		frags[k] = append(frags[k], f)
	}
	for u, segs := range history {
		hists[shardFor(u)][u] = &userHistory{segs: segs}
	}
	s.lockAll(func(i int, st *shardState) { st.published, st.users, st.history = frags[i], accts[i], hists[i] })
}

// recordHistory appends an accepted upload's raw records to the user's
// bounded history, dropping the oldest overflow. The records join as a
// segment of their own, the caller's array with its capacity clipped
// (nothing writes it again). The cap drops head segments and re-slices
// the one it cuts into: no record is copied, below the cap or at it,
// and none a captured header covers is written.
func (st *shardState) recordHistory(_ durable, user string, records []trace.Record, cap int) {
	if cap <= 0 {
		return
	}
	h := st.history[user]
	if h == nil {
		h = &userHistory{}
		st.history[user] = h
	}
	h.segs = append(h.segs, records[:len(records):len(records)])
	over := h.segs.len() - cap
	if over <= 0 {
		return
	}
	h.headEdits++
	k := 0
	for ; over >= len(h.segs[k]); k++ {
		over -= len(h.segs[k])
	}
	h.segs[k] = h.segs[k][over:]
	h.segs = slices.Delete(h.segs, 0, k)
}
