package main

import (
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"mood/internal/clock"
	"mood/internal/cluster"
	"mood/internal/service"
	"mood/internal/store"
)

// The system under test, built in-process from the public constructors
// a deployment uses: service.New over store.NewWAL, real loopback
// listeners, cluster.NewMembership / NewRouter in front, service.Client
// on the other side of the socket.

// authToken is the bearer token every workload configures, so the auth
// box of the middleware chain is on the measured path.
const authToken = "bench-token"

// neverRefuse is a rate-limit budget no closed-loop client can exhaust:
// the limiter runs on every request, and refuses none.
const neverRefuse = 1e6

// env is what a repetition builds its system in.
type env struct {
	clk clock.Clock
	dir string        // this repetition's scratch directory (WALs live here)
	tr  *tracer       // nil in the untraced run: no wrapper is installed
	sc  storeCounters // the store seams' aggregate counters (traced run)

	// What the repetition hands to the traced run's layer report.
	counts opCounters  // client-side chunk tallies of the timed phase
	engine *moodEngine // the real engine, when the workload has one
}

// numClients is the closed-loop client count: one keep-alive connection
// each, never more clients than processors, two on the reference box.
func numClients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// node is one service.Server over its own WAL behind a real listener.
type node struct {
	e    *env
	id   string // cluster identity; "" for a stand-alone node
	dir  string
	opts func() []service.Option // engine-side options (protector excluded)
	prot func() service.Protector

	boots int // completed boots; a later one replays the log
	srv   *service.Server
	front *listener
	url   string
	ffs   *store.FaultFS // traced run only
	tfs   *tracedFS      // traced run only
}

// baseOptions are the service options every workload shares: every
// middleware box on, cmd/moodserver's defaults for workers, queue and
// request timeout, and no background checkpoint timer — compaction is
// triggered by op count, so background work is the same on every run.
func baseOptions(e *env) []service.Option {
	return []service.Option{
		service.WithClock(e.clk),
		service.WithAuthToken(authToken),
		service.WithRateLimit(neverRefuse, neverRefuse),
		service.WithCheckpointInterval(-1),
	}
}

// modelledSync is what one Sync of the benchmark's WAL filesystem costs:
// a fixed wait in place of the disk's own answer time.
const modelledSync = 100 * time.Microsecond

// modelDiskFS is the filesystem every WAL of the benchmark lives on: the
// real one, under the checkout, with every fsync(2) replaced by a wait of
// modelledSync. The WAL frames, writes, rotates, renames and calls Sync
// exactly where it would, and every call costs the caller what a disk of
// constant speed would charge, so the number of syncs an op needs and
// how well group commit batches them move ops_per_s and the latency
// percentiles — but the disk of the box does not. On the shared disk of
// the reference box one fsync took 85 to 330 us from one minute to the
// next, which moved ops_per_s of ingest-echo-cluster (a hundred syncs per
// op) by 24 % between runs of unchanged code. store.fsync_us reports what
// the real disk would have charged per sync.
//
// The wait is nanosleep(2), not the clock's Sleep: like fsync it blocks
// the calling thread in the kernel, so the runtime hands the processor to
// another goroutine, and it returns after 160 us give or take 5 (the
// kernel's timer slack on top of the 100), where a runtime timer this
// short rounds up to the poller's millisecond.
type modelDiskFS struct{ store.FS }

func modelSyncWait() {
	ts := syscall.NsecToTimespec(int64(modelledSync))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func (f modelDiskFS) OpenFile(name string, flag int, perm fs.FileMode) (store.File, error) {
	h, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return modelDiskFile{h}, nil
}

func (modelDiskFS) SyncDir(string) error {
	modelSyncWait()
	return nil
}

type modelDiskFile struct{ store.File }

func (modelDiskFile) Sync() error {
	modelSyncWait()
	return nil
}

// boot opens the node's WAL (group commit), builds the server, replays
// the log and starts serving on a fresh loopback port.
func (n *node) boot() error {
	wopts := store.WALOptions{Dir: n.dir, Fsync: store.FsyncGroup, Clock: n.e.clk, FS: modelDiskFS{store.OS()}}
	if n.e.tr != nil {
		n.ffs = store.NewFaultFS(wopts.FS)
		n.tfs = newTracedFS(n.ffs, n.e.tr, &n.e.sc)
		wopts.FS = n.tfs
	}
	wal, err := store.NewWAL(wopts)
	if err != nil {
		return err
	}
	var st store.Store = wal
	if n.e.tr != nil {
		st = &tracedStore{Store: wal, tr: n.e.tr, c: &n.e.sc, node: n.e.tr.detail(n.id), replay: n.boots > 0, compact: noSpan}
	}
	opts := append(baseOptions(n.e), service.WithStore(st))
	if n.id != "" {
		opts = append(opts, service.WithNodeID(n.id))
	}
	if n.opts != nil {
		opts = append(opts, n.opts()...)
	}
	srv, err := service.New(n.prot(), opts...)
	if err != nil {
		wal.Close() //nolint:errcheck // already failing; report the boot error
		return err
	}
	if err := srv.Recover(); err != nil {
		srv.Close() //nolint:errcheck // already failing; report the recovery error
		return fmt.Errorf("recovering node %q: %w", n.id, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close() //nolint:errcheck // already failing
		return err
	}
	h := srv.Handler()
	if n.e.tr != nil {
		h = &tracedHandler{tr: n.e.tr, layer: layerNode, detail: n.e.tr.detail(n.id), next: h}
	}
	n.srv = srv
	n.url = "http://" + ln.Addr().String()
	n.front = listen(h, ln)
	n.boots++
	return nil
}

// listener is one http.Server on a loopback port and its accept loop.
type listener struct {
	hs   *http.Server
	done chan struct{} // closed when the accept loop has returned
}

func listen(h http.Handler, ln net.Listener) *listener {
	l := &listener{hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln) //nolint:errcheck // ends with ErrServerClosed on close
	}()
	return l
}

// close drops the listener and every connection and waits for the
// accept loop to end.
func (l *listener) close() error {
	err := l.hs.Close()
	<-l.done
	return err
}

// stop closes the listener and the server cleanly: the upload queue
// drains, a final checkpoint compacts the log, the store closes.
func (n *node) stop() error {
	herr := n.front.close()
	if err := n.srv.Close(); err != nil {
		return err
	}
	return herr
}

// kill is the traced run's power loss: the filesystem dies first, every
// byte no fsync covered is thrown away, and only then is the process
// state reaped — its shutdown path can no longer touch the log.
func (n *node) kill() (discarded int64, err error) {
	herr := n.front.close()
	n.ffs.Kill()
	discarded, err = n.tfs.discardUnsynced()
	n.srv.Close() //nolint:errcheck // the dead store makes this fail by design
	if err == nil {
		err = herr
	}
	return discarded, err
}

// reboot restarts the node from what its log holds: after a clean stop
// in the untraced run, after a kill in the traced one.
func (n *node) reboot() (discarded int64, err error) {
	if n.e.tr != nil {
		discarded, err = n.kill()
	} else {
		err = n.stop()
	}
	if err != nil {
		return discarded, err
	}
	return discarded, n.boot()
}

// client returns a service.Client for base over its own keep-alive
// connection. In the traced run the client's transport is wrapped; the
// returned clientTransport is then how the op loop names the op in
// flight (nil when untraced).
func newClient(e *env, base string) (*service.Client, *clientTransport, func()) {
	tp := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	hc := &http.Client{Transport: tp}
	var ct *clientTransport
	if e.tr != nil {
		ct = &clientTransport{tr: e.tr, next: tp}
		hc.Transport = ct
	}
	c := service.NewClient(base).SetAuthToken(authToken)
	c.HTTPClient = hc
	c.Clock = e.clk
	return c, ct, tp.CloseIdleConnections
}

// clusterSUT is the three-node deployment: WAL nodes behind a
// health-checked membership and the rendezvous-hash router.
type clusterSUT struct {
	nodes  []*node
	m      *cluster.Membership
	router *listener
	url    string
	idle   func()
}

const clusterSize = 3

// nodeID names cluster node i.
func nodeID(i int) string { return fmt.Sprintf("n%02d", i) }

func bootCluster(e *env, prot func() service.Protector) (*clusterSUT, error) {
	cs := &clusterSUT{}
	members := make([]cluster.Node, 0, clusterSize)
	for i := 0; i < clusterSize; i++ {
		id := nodeID(i)
		n := &node{e: e, id: id, dir: filepath.Join(e.dir, id), prot: prot}
		if err := n.boot(); err != nil {
			cs.close() //nolint:errcheck // already failing; report the boot error
			return nil, fmt.Errorf("booting cluster node %s: %w", id, err)
		}
		cs.nodes = append(cs.nodes, n)
		members = append(members, cluster.Node{ID: id, URL: n.url})
	}
	m, err := cluster.NewMembership(cluster.Config{Nodes: members, Clock: e.clk})
	if err != nil {
		cs.close() //nolint:errcheck
		return nil, err
	}
	cs.m = m
	m.Start()

	tp := &http.Transport{MaxIdleConnsPerHost: 2 * numClients()}
	cs.idle = tp.CloseIdleConnections
	hc := &http.Client{Transport: tp}
	if e.tr != nil {
		hc.Transport = &routerTransport{tr: e.tr, next: tp}
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{Membership: m, Token: authToken, HTTPClient: hc})
	if err != nil {
		cs.close() //nolint:errcheck
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cs.close() //nolint:errcheck
		return nil, err
	}
	var h http.Handler = router
	if e.tr != nil {
		h = &tracedHandler{tr: e.tr, layer: layerRouter, next: router}
	}
	cs.url = "http://" + ln.Addr().String()
	cs.router = listen(h, ln)
	return cs, nil
}

// misroutes sums the owner-guard tripwire over the nodes.
func (cs *clusterSUT) misroutes() int64 {
	var total int64
	for _, n := range cs.nodes {
		total += n.srv.NodeStats().Misroutes
	}
	return total
}

// checkpointAll compacts every node's log now.
func (cs *clusterSUT) checkpointAll() error {
	for _, n := range cs.nodes {
		if err := n.srv.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint on %s: %w", n.id, err)
		}
	}
	return nil
}

// stopFront takes the router and the health checker down, leaving the
// nodes up for the recovery check.
func (cs *clusterSUT) stopFront() {
	if cs.router != nil {
		cs.router.close() //nolint:errcheck // teardown
		cs.router = nil
	}
	if cs.m != nil {
		cs.m.Close()
		cs.m = nil
	}
	if cs.idle != nil {
		cs.idle()
	}
}

func (cs *clusterSUT) close() error {
	cs.stopFront()
	var first error
	for _, n := range cs.nodes {
		if n.srv == nil {
			continue
		}
		if err := n.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
