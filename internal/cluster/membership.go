package cluster

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mood/internal/clock"
)

// Membership owns the live ring: a health-check loop on the injected
// clock probes every member and swaps in a new ring generation on each
// up/down transition. Readers load the current ring atomically (the
// engine hot-swap shape: immutable value, atomic pointer, epoch per
// generation) and never observe a half-applied transition.
type Membership struct {
	cfg  Config
	clk  clock.Clock
	ring atomic.Pointer[Ring]

	mu    sync.Mutex // serialises swaps; fails is loop-only state
	fails map[string]int

	stop chan struct{}
	done chan struct{}
	// probes counts completed probe sweeps — the rendezvous a test on a
	// manual clock polls to know an Advance-delivered tick was consumed
	// (same pattern as the service tier's retrainTicks).
	probes atomic.Int64
}

// Config tunes the membership health checker.
type Config struct {
	// Nodes is the initial member set.
	Nodes []Node
	// Clock paces the probe loop; defaults to the system clock.
	Clock clock.Clock
	// ProbeInterval is the health sweep period. Default 500ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request. Default 2s.
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive failed probes mark a node
	// down (one success marks it up again). Default 3.
	FailThreshold int
	// Probe checks one node; nil selects the default HTTP GET
	// {node.URL}/healthz expecting 200.
	Probe func(n Node) error
	// HTTPClient serves the default probe; nil builds one bounded by
	// ProbeTimeout.
	HTTPClient *http.Client
}

func (c *Config) fill() {
	if c.Clock == nil {
		c.Clock = clock.System()
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: c.ProbeTimeout}
	}
}

// NewMembership validates the member set and returns a stopped
// membership (ring epoch 1, everything up). Call Start to begin health
// checking and Close to stop it.
func NewMembership(cfg Config) (*Membership, error) {
	cfg.fill()
	ring, err := NewRing(cfg.Nodes)
	if err != nil {
		return nil, err
	}
	m := &Membership{cfg: cfg, clk: cfg.Clock, fails: map[string]int{}}
	m.ring.Store(ring)
	return m, nil
}

// Ring returns the current ring generation.
func (m *Membership) Ring() *Ring { return m.ring.Load() }

// Start launches the health loop. Idempotent start is not supported;
// call once.
func (m *Membership) Start() {
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go m.healthLoop()
}

// Close stops the health loop and waits for it to exit.
func (m *Membership) Close() {
	if m.stop == nil {
		return
	}
	close(m.stop)
	<-m.done
	m.stop = nil
}

// healthLoop sweeps every member each tick and applies up/down
// transitions to the ring.
func (m *Membership) healthLoop() {
	defer close(m.done)
	t := m.clk.NewTicker(m.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C():
			m.Sweep()
		}
	}
}

// Sweep runs one health pass over the current members: probe all in
// parallel, fold consecutive-failure counts, swap the ring on any
// transition. Exported so harnesses can force a deterministic pass.
func (m *Membership) Sweep() {
	nodes := m.Ring().Nodes()
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n Node) {
			defer wg.Done()
			errs[i] = m.probe(n)
		}(i, n)
	}
	wg.Wait()

	m.mu.Lock()
	ring := m.Ring()
	for i, n := range nodes {
		if errs[i] != nil {
			m.fails[n.ID]++
			if m.fails[n.ID] >= m.cfg.FailThreshold && !ring.Down(n.ID) {
				ring = ring.withDown(n.ID, true)
			}
			continue
		}
		m.fails[n.ID] = 0
		if ring.Down(n.ID) {
			ring = ring.withDown(n.ID, false)
		}
	}
	m.ring.Store(ring)
	m.mu.Unlock()
	m.probes.Add(1)
}

func (m *Membership) probe(n Node) error {
	if m.cfg.Probe != nil {
		return m.cfg.Probe(n)
	}
	resp, err := m.cfg.HTTPClient.Get(n.URL + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // liveness only
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s /healthz answered %d", n.ID, resp.StatusCode)
	}
	return nil
}
