package loadgen

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"mood/internal/core"
	"mood/internal/mathx"
	"mood/internal/service"
	"mood/internal/store"
	"mood/internal/trace"
)

// Host runs a service.Server over a write-ahead log behind one stable
// http.Handler whose backend can be torn down and rebooted — the
// in-process shape of "the process restarted behind the load balancer".
// Restart is the graceful drain → final checkpoint → recover → swap of
// the restart scenario; Crash is the SIGKILL-style stop of the crash
// scenario. Shared by cmd/moodload and the e2e tests so each teardown
// sequence exists exactly once.
type Host struct {
	handler atomic.Value // http.Handler

	// Every incarnation runs over a fresh fault wrapper of baseFS, so
	// Crash can sever the previous one mid-write.
	mkWAL  func(store.Store) (*service.Server, error)
	walDir string
	baseFS store.FS

	mu      sync.Mutex
	current *service.Server
	curFS   *store.FaultFS
	killed  bool // between Kill and Reboot
}

// NewWALHost boots the first server over a write-ahead log in dir on
// fsys (nil = the real filesystem). mk receives the incarnation's store
// and must pass it to the server (service.WithStore); the host recovers
// each incarnation before swapping it in.
func NewWALHost(mk func(store.Store) (*service.Server, error), dir string, fsys store.FS) (*Host, error) {
	if fsys == nil {
		fsys = store.OS()
	}
	h := &Host{mkWAL: mk, walDir: dir, baseFS: fsys}
	srv, ffs, err := h.bootWAL()
	if err != nil {
		return nil, err
	}
	h.current, h.curFS = srv, ffs
	h.handler.Store(srv.Handler())
	return h, nil
}

// bootWAL builds one incarnation: fresh fault wrapper, fresh WAL over
// it, recovered server.
func (h *Host) bootWAL() (*service.Server, *store.FaultFS, error) {
	ffs := store.NewFaultFS(h.baseFS)
	w, err := store.NewWAL(store.WALOptions{Dir: h.walDir, FS: ffs, Fsync: store.FsyncAlways})
	if err != nil {
		return nil, nil, err
	}
	srv, err := h.mkWAL(w)
	if err != nil {
		return nil, nil, err
	}
	if err := srv.Recover(); err != nil {
		srv.Close() //nolint:errcheck // already failing; report the recovery error
		return nil, nil, err
	}
	return srv, ffs, nil
}

// ServeHTTP dispatches to the current backend; during a restart it
// answers 503 + Retry-After, which the loadgen driver (and any
// well-behaved client) retries.
func (h *Host) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.handler.Load().(http.Handler).ServeHTTP(w, r)
}

// Current returns the live server (for final assertions; the pointer
// changes across Restart).
func (h *Host) Current() *service.Server {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.current
}

// Restart drains the live server — its Close writes the final
// checkpoint — then recovers a replacement from the log and swaps it in.
// New arrivals shed retryably while the backend is down; requests
// already inside the old handler drain through its worker pool, so the
// checkpoint holds every accepted upload and its completed idempotency
// entry.
func (h *Host) Restart() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.killed {
		return fmt.Errorf("loadgen: Restart on a host that is down (use Reboot)")
	}
	h.handler.Store(downHandler())
	if err := h.current.Close(); err != nil {
		return err
	}
	next, ffs, err := h.bootWAL()
	if err != nil {
		return err
	}
	h.current, h.curFS = next, ffs
	h.handler.Store(next.Handler())
	return nil
}

// Crash kills the live server the hard way: no drain, no snapshot, no
// final flush — its filesystem dies mid-write, exactly like SIGKILL or
// power loss — then reboots a replacement from whatever the WAL holds.
// Everything the old incarnation acknowledged under fsync=always is on
// the log and must survive; everything else is legitimately lost and
// re-delivered by the driver's retries.
func (h *Host) Crash() error {
	if err := h.Kill(); err != nil {
		return err
	}
	return h.Reboot()
}

// Kill is the first half of Crash: sever the live incarnation and leave
// the host down (every request answers the retryable 503) until Reboot.
// The cluster scenario uses the split so a node stays dead long enough
// for the router's health checks to mark it down and traffic to ride
// out the failover window.
func (h *Host) Kill() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.killed {
		return fmt.Errorf("loadgen: Kill on a host that is already down")
	}
	h.handler.Store(downHandler())
	// Sever the disk first: in-flight writes die, nothing unsynced can
	// land after this point, and the fault layer waits out stragglers so
	// no zombie write races the reboot.
	h.curFS.Kill()
	// Reaping the old incarnation's goroutines is test-process hygiene,
	// not a drain — with its filesystem dead, its shutdown path cannot
	// touch the log.
	h.current.Close() //nolint:errcheck // the dead store makes this fail by design
	h.killed = true
	return nil
}

// Reboot is the second half of Crash: boot a replacement from whatever
// the WAL holds and swap it in.
func (h *Host) Reboot() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.killed {
		return fmt.Errorf("loadgen: Reboot on a host that is not down")
	}
	next, ffs, err := h.bootWAL()
	if err != nil {
		return err
	}
	h.current, h.curFS = next, ffs
	h.killed = false
	h.handler.Store(next.Handler())
	return nil
}

// downHandler answers for the backend while it is being replaced, in the
// service's problem dialect; the driver (and any well-behaved client)
// retries the 503.
func downHandler() http.Handler {
	p := service.NewProblem(http.StatusServiceUnavailable, service.CodeShuttingDown, "restarting")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", service.ProblemContentType)
		w.WriteHeader(p.Status)
		json.NewEncoder(w).Encode(p) //nolint:errcheck // headers are gone
	})
}

// Close shuts the live server down.
func (h *Host) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.current.Close()
}

// EchoProtector admits every upload as one fragment under a
// deterministic pseudonym — the pass-through engine for service-tier
// soaks: it exercises queues, shards, idempotency and audit plumbing
// without paying for protection search, and keeps reports reproducible
// across restarts (no in-memory counters to reset).
type EchoProtector struct{ Seed uint64 }

// Protect implements service.Protector.
func (p EchoProtector) Protect(t trace.Trace) (core.Result, error) {
	label := mathx.DeriveSeed(p.Seed, "loadgen-echo", t.User,
		fmt.Sprint(t.Start()), fmt.Sprint(t.Len()))
	return core.Result{
		User:         t.User,
		TotalRecords: t.Len(),
		Pieces: []core.Piece{{
			Trace:         t.WithUser(fmt.Sprintf("anon-%x", label)),
			Mechanism:     "echo",
			SourceRecords: t.Len(),
		}},
	}, nil
}
