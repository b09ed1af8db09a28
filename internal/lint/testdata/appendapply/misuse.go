package fixture

// mintOutsideDurable makes its own witness: no append stands behind it.
func (s *Server) mintOutsideDurable(id string, n int) {
	s.applyCommit(durable{}, id, n) // want `appendapply: durable witness minted outside durable\.go`
}

// writeWithoutWitness changes committed state in a function that no
// append reached.
func (s *Server) writeWithoutWitness(n int) {
	s.shard.count += n // want `appendapply: write to stateShard\.count in a function without a durable witness`
	if us := s.users["x"]; us != nil {
		us.Uploads++ // want `appendapply: write to UserStats\.Uploads in a function without a durable witness`
	}
}

// witnessInVariable keeps its witness in a local, from which it could
// outlive the append.
func (s *Server) witnessInVariable(d durable, id string, n int) {
	kept := d
	s.applyCommit(kept, id, n) // want `appendapply: durable witness kept is not a parameter of its function`
}

// witnessCaptured hands its witness to a goroutine that runs at an
// unknown time.
func (s *Server) witnessCaptured(d durable, id string, n int) {
	go func() {
		s.applyCommit(d, id, n) // want `appendapply: durable witness d is not a parameter of its function`
	}()
}

// witnessFromNew forges a witness without a literal.
func (s *Server) witnessFromNew(id string, n int) {
	s.applyCommit(*new(durable), id, n) // want `appendapply: durable witness \*new\(durable\) is not a parameter`
}

type holder struct{ w durable }

// witnessFromField reads a witness kept in a struct.
func (s *Server) witnessFromField(h holder, id string, n int) {
	s.applyCommit(h.w, id, n) // want `appendapply: durable witness h\.w is not a parameter`
}

// passDown forwards its own witness: silent.
func (s *Server) passDown(d durable, id string, n int) {
	s.applyCommit(d, id, n)
	s.jobs.setDone(d, id, n)
}

// blankWitness writes state under a witness it does not use: silent.
func (s *Server) blankWitness(_ durable, n int) {
	s.shard.count = n
}

// bookkeepingOnly moves a job that has no witness and reads state
// fields: neither applies committed state.
func (s *Server) bookkeepingOnly(id string) int {
	s.jobs.setRunning(id)
	return s.shard.count + len(s.shard.published)
}

// locked runs f on the shard there and then, under its lock.
func (sh *stateShard) locked(f func(st *stateShard)) { f(sh) }

// applyUnderLock writes state in a literal passed to locked: the literal
// runs inside its caller, whose witness covers it. Silent.
func (s *Server) applyUnderLock(d durable, id string, n int) {
	s.shard.locked(func(st *stateShard) {
		st.count += n
		s.jobs.setDone(d, id, n)
	})
}

// writeUnderLockWithoutWitness has no witness to share.
func (s *Server) writeUnderLockWithoutWitness(n int) {
	s.shard.locked(func(st *stateShard) {
		st.count = n // want `appendapply: write to stateShard\.count in a function without a durable witness`
	})
}
