// Package fixture exercises lockscope with a miniature of the service
// package's sharded state: the state is a field only the doors, locked
// and lockAll, select; short CPU-only critical sections pass; blocking
// under a lock, nested locks and state kept past the lock are flagged.
package fixture

import "sync"

type stateShard struct {
	mu sync.Mutex
	st shardState
}

type shardState struct {
	count int
	users map[string]int
}

type Server struct {
	shards []stateShard
}

// locked is the door to one shard.
func (sh *stateShard) locked(f func(st *shardState)) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f(&sh.st)
}

// lockAll is the door to every shard at once, in index order.
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

// newServer builds each shard with a composite literal: no selection.
func newServer(n int) *Server {
	s := &Server{shards: make([]stateShard, n)}
	for i := range s.shards {
		s.shards[i] = stateShard{st: shardState{users: map[string]int{}}}
	}
	return s
}

// peek sits beside the doors but is not one.
func (s *Server) peek() int {
	return s.shards[0].st.count // want `lockscope: s\.shards\[0\]\.st selects a shard field outside locked and lockAll`
}
