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

// stateShard holds one slice of the server state: the users that hash
// here, their accounting, the fragments they published and their raw
// upload history (the growing attacker-side knowledge the retrainer
// learns from). The global counters are the sum of every participant's
// accounting (see Stats).
type stateShard struct {
	mu        sync.Mutex
	published []publishedFrag
	users     map[string]*UserStats
	history   map[string]*userHistory
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
		sh := &s.shards[i]
		sh.mu.Lock()
		out.Users += len(sh.users)
		out.PublishedTraces += len(sh.published)
		for _, us := range sh.users {
			out.Uploads += us.Uploads
			out.RecordsIn += us.RecordsIn
			out.RecordsPublished += us.RecordsPublished
			out.RecordsRejected += us.RecordsRejected
			out.RecordsQuarantined += us.RecordsQuarantined
			out.QuarantinedTraces += us.PiecesQuarantined
		}
		sh.mu.Unlock()
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
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, f := range sh.published {
			out = append(out, f.Trace)
		}
		sh.mu.Unlock()
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
		sh := &s.shards[i]
		sh.mu.Lock()
		for u, h := range sh.history {
			if len(h.segs) > 1 {
				joins = append(joins, join{h: h, at: len(out), segs: slices.Clone(h.segs), edits: h.headEdits})
			}
			out = append(out, trace.Trace{User: u, Records: h.segs[0]})
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(joins, func(a, b join) int { return a.at - b.at }) // in out's order
	for _, j := range joins {
		t := &out[j.at]
		t.Records = j.segs.join()
		sh := s.shard(t.User)
		sh.mu.Lock()
		if j.h.headEdits == j.edits && sh.history[t.User] == j.h {
			j.h.segs[0] = t.Records
			j.h.segs = slices.Delete(j.h.segs, 1, len(j.segs))
			j.h.headEdits++
		}
		sh.mu.Unlock()
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
// per-user history while holding every shard lock at once, so the
// persisted state is a single point in time: an upload committing
// concurrently is either entirely in the snapshot or entirely absent,
// never torn across sections. Shards lock in index order; all other
// paths lock one shard at a time, so this cannot deadlock.
//
// Only what is rewritten in place is copied — the fragment list
// (removeCondemned compacts it), the accounting structs and each
// history's segment list (headers only). Record arrays are captured by
// slice header: no record a segment or a fragment covers is written
// again, so the caller may read them after the locks are gone.
func (s *Server) fullSnapshot() (published []publishedFrag, history map[string]segments, users map[string]*UserStats) {
	for i := range s.shards {
		//mood:allow lockscope -- deliberate full acquisition in index order for a point-in-time snapshot; see doc comment
		s.shards[i].mu.Lock()
	}
	defer func() {
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
	}()
	nFrags := 0
	for i := range s.shards {
		nFrags += len(s.shards[i].published)
	}
	published = make([]publishedFrag, 0, nFrags)
	users = make(map[string]*UserStats)
	history = make(map[string]segments)
	for i := range s.shards {
		sh := &s.shards[i]
		published = append(published, sh.published...)
		for u, us := range sh.users {
			cp := *us
			users[u] = &cp
		}
		for u, h := range sh.history {
			history[u] = slices.Clone(h.segs)
		}
	}
	return published, history, users
}

// resetShards replaces the whole sharded state with a decoded snapshot,
// whose slices it takes over. No snapshot carries global stats: they are
// the sum of the user accounting. Fragment sequence numbers persist: WAL
// quarantine records name them across restarts.
func (s *Server) resetShards(_ durable, published []publishedFrag, history map[string]segments, users map[string]*UserStats) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.published = nil
		sh.users = make(map[string]*UserStats)
		sh.history = make(map[string]*userHistory)
		sh.mu.Unlock()
	}
	for u, us := range users {
		sh := s.shard(u)
		sh.mu.Lock()
		cp := *us
		sh.users[u] = &cp
		sh.mu.Unlock()
	}
	for _, f := range published {
		// Fragments live in their owner's shard (as the commit path
		// stores them), so a quarantine updates the fragment list and
		// the owner's accounting under one lock.
		sh := s.shard(f.Owner)
		sh.mu.Lock()
		sh.published = append(sh.published, f)
		sh.mu.Unlock()
	}
	for u, segs := range history {
		sh := s.shard(u)
		sh.mu.Lock()
		sh.history[u] = &userHistory{segs: segs}
		sh.mu.Unlock()
	}
}

// recordHistory appends an accepted upload's raw records to the user's
// bounded history, dropping the oldest overflow. Callers hold sh.mu.
// The records join as a segment of their own, the caller's array with
// its capacity clipped (nothing writes it again). The cap drops head
// segments and re-slices the one it cuts into: no record is copied,
// below the cap or at it, and none a captured header covers is written.
func (sh *stateShard) recordHistory(_ durable, user string, records []trace.Record, cap int) {
	if cap <= 0 {
		return
	}
	h := sh.history[user]
	if h == nil {
		h = &userHistory{}
		sh.history[user] = h
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
