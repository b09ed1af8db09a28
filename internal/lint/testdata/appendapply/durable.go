// Package fixture exercises appendapply with a miniature of the service
// tier: a Store with Append, sharded state, a job store, and the durable
// witness every apply takes. Mints and pass-downs in this file are
// silent; misuse.go holds what the analyzer reports.
package fixture

type Store interface {
	Append(recs ...int) error
}

// durable witnesses that a state change is on the log.
type durable struct{}

type stateShard struct {
	published []int
	count     int
}

type UserStats struct{ Uploads int }

type jobStore struct{ jobs map[string]int }

func (j *jobStore) setDone(_ durable, id string, n int) { j.jobs[id] = n }
func (j *jobStore) setRunning(id string)                { j.jobs[id] = -1 }

type Server struct {
	store Store
	shard stateShard
	jobs  *jobStore
	users map[string]*UserStats
}

// commit mints the witness once the append has returned nil, or when no
// store is configured.
func (s *Server) commit(id string, n int) error {
	if s.store != nil {
		if err := s.store.Append(n); err != nil {
			return err
		}
	}
	s.applyCommit(durable{}, id, n)
	return nil
}

// Recover mints a witness for replay.
func (s *Server) Recover(recs []int) {
	for _, r := range recs {
		s.applyCommit(durable{}, "", r)
	}
}

// applyCommit passes its witness down to every apply it makes.
func (s *Server) applyCommit(d durable, id string, n int) {
	s.shard.published = append(s.shard.published, n)
	s.shard.count += n
	us, ok := s.users[id]
	if !ok {
		us = &UserStats{}
		s.users[id] = us
	}
	us.Uploads++
	s.jobs.setDone(d, id, n)
}
