package fixture

import (
	"net/http"
	"sync"
	"time"
)

// total takes every shard lock: calling it under a lock re-enters them.
func (s *Server) total() int {
	n := 0
	s.lockAll(func(_ int, st *shardState) {
		n += st.count
	})
	return n
}

// viaTotal takes the locks one call down.
func (s *Server) viaTotal() int { return s.total() }

// shortCriticalSection is the discipline: touch memory under the lock.
func shortCriticalSection(sh *stateShard) int {
	n := 0
	sh.locked(func(st *shardState) {
		n = st.count + len(st.users)
	})
	return n
}

func sleepUnderLock(sh *stateShard) {
	sh.locked(func(st *shardState) {
		time.Sleep(time.Millisecond) // want `lockscope: clock wait \(time\.Sleep\) while a shard lock is held`
	})
	time.Sleep(time.Millisecond)
}

func sendUnderLock(sh *stateShard, ch chan int) {
	sh.locked(func(st *shardState) {
		ch <- st.count // want `lockscope: channel send while a shard lock is held`
	})
	ch <- 2
}

func receiveUnderLock(sh *stateShard, ch chan int) {
	sh.locked(func(st *shardState) {
		st.count = <-ch // want `lockscope: channel receive while a shard lock is held`
	})
}

func waitUnderLock(sh *stateShard, ch chan int, wg *sync.WaitGroup) {
	sh.locked(func(st *shardState) {
		select { // want `lockscope: select \(channel wait\) while a shard lock is held`
		case <-ch: // want `lockscope: channel receive while a shard lock is held`
		default:
		}
		for range ch { // want `lockscope: ranging over a channel while a shard lock is held`
		}
		wg.Wait() // want `lockscope: goroutine wait \(sync\.WaitGroup\.Wait\) while a shard lock is held`
	})
}

func nestedLocks(a, b *stateShard) {
	a.locked(func(st *shardState) {
		b.locked(func(*shardState) {}) // want `lockscope: acquiring a shard lock \(locked, a lock-order hazard\)`
	})
}

func outboundUnderLock(sh *stateShard, c *http.Client) {
	sh.locked(func(st *shardState) {
		_, _ = c.Get("http://example.invalid/") // want `lockscope: outbound HTTP \(http\.Client\.Get\) while a shard lock is held`
	})
}

func responseUnderLock(sh *stateShard, w http.ResponseWriter) {
	sh.locked(func(st *shardState) {
		w.WriteHeader(http.StatusOK) // want `lockscope: response write \(http\.ResponseWriter\.WriteHeader\) while a shard lock is held`
	})
}

func walkUnderLock(s *Server, sh *stateShard) {
	sh.locked(func(st *shardState) {
		st.count = s.total()    // want `lockscope: total \(re-enters the shard locks\) while a shard lock is held`
		st.count = s.viaTotal() // want `lockscope: viaTotal \(re-enters the shard locks\) while a shard lock is held`
	})
}

// snapshotThenEvaluate is the pattern: copy under the lock, evaluate
// unlocked.
func snapshotThenEvaluate(s *Server, sh *stateShard) int {
	n := shortCriticalSection(sh)
	return n + s.total()
}

// bump runs under the lock because it takes the state: it is checked
// like a literal passed to a door.
func (st *shardState) bump(ch chan int) {
	st.count++
	ch <- st.count // want `lockscope: channel send while a shard lock is held`
}

// deferUnderLock: a nested literal still runs under the lock.
func deferUnderLock(sh *stateShard, ch chan int) {
	sh.locked(func(st *shardState) {
		defer func() {
			ch <- 1 // want `lockscope: channel send while a shard lock is held`
		}()
	})
}

// goroutineRunsUnlocked: a spawned goroutine does not hold the lock.
func goroutineRunsUnlocked(sh *stateShard, ch chan int) {
	sh.locked(func(st *shardState) {
		go func() {
			ch <- 1
		}()
	})
}

func readOutsideDoor(sh *stateShard) int {
	return sh.st.count // want `lockscope: sh\.st selects a shard field outside locked and lockAll`
}

// lockOutsideDoor takes the mutex by hand: the doors are the only way
// to it too.
func lockOutsideDoor(sh *stateShard, ch chan int) {
	sh.mu.Lock() // want `lockscope: sh\.mu selects a shard field outside locked and lockAll`
	ch <- 1
	sh.mu.Unlock() // want `lockscope: sh\.mu selects a shard field outside locked and lockAll`
}

// reset writes the state field by field: no shardState value.
func (s *Server) reset() {
	s.lockAll(func(_ int, st *shardState) { st.count, st.users = 0, map[string]int{} })
}

// stateCopiedPastTheLock copies the state: the copy shares its maps,
// so it is a finding wherever it is read or written whole.
func stateCopiedPastTheLock(sh *stateShard) {
	var cp shardState
	sh.locked(func(st *shardState) {
		cp = *st           // want `lockscope: shard state cp is a value` `lockscope: shard state \*st is a value`
		*st = shardState{} // want `lockscope: shard state \*st is a value, not a literal`
	})
	cp.users["k"] = 1 // want `lockscope: shard state cp is a value, not a literal`
}

var kept *shardState

type holder struct{ st *shardState }

func identity(st *shardState) *shardState { return st }

// stateKeptPastTheLock keeps the state in a variable, a field, a
// result and a goroutine: each outlives the lock.
func stateKeptPastTheLock(sh *stateShard, h *holder) {
	sh.locked(func(st *shardState) {
		kept = st        // want `lockscope: shard state kept is not a parameter of its function`
		h.st = st        // want `lockscope: shard state h\.st is not a parameter of its function`
		_ = identity(st) // want `lockscope: shard state identity\(st\) is not a parameter of its function`
		go func() {
			st.count++ // want `lockscope: shard state st is not a parameter of its function`
		}()
	})
}
