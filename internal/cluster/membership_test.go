package cluster

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mood/internal/clock"
)

// flakyProbe is a probe whose per-node verdicts tests flip at will.
type flakyProbe struct {
	mu   sync.Mutex
	fail map[string]bool
}

func (p *flakyProbe) probe(n Node) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fail[n.ID] {
		return errors.New("probe refused")
	}
	return nil
}

func (p *flakyProbe) set(id string, failing bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fail == nil {
		p.fail = map[string]bool{}
	}
	p.fail[id] = failing
}

func newTestMembership(t *testing.T, probe func(Node) error) *Membership {
	t.Helper()
	m, err := NewMembership(Config{
		Nodes:         mkNodes(3),
		Clock:         clock.NewManual(time.Unix(1000, 0)),
		FailThreshold: 2,
		Probe:         probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSweepMarksDownAtThresholdAndUpOnRecovery(t *testing.T) {
	p := &flakyProbe{}
	m := newTestMembership(t, p.probe)
	if e := m.Ring().Epoch(); e != 1 {
		t.Fatalf("fresh epoch = %d, want 1", e)
	}

	p.set("n01", true)
	m.Sweep() // one failure: below threshold, no transition
	if m.Ring().Down("n01") || m.Ring().Epoch() != 1 {
		t.Fatalf("transitioned below threshold: down=%v epoch=%d", m.Ring().Down("n01"), m.Ring().Epoch())
	}
	m.Sweep() // second consecutive failure: down
	if !m.Ring().Down("n01") || m.Ring().Epoch() != 2 {
		t.Fatalf("no down transition at threshold: down=%v epoch=%d", m.Ring().Down("n01"), m.Ring().Epoch())
	}
	m.Sweep() // still failing: no further epoch churn
	if m.Ring().Epoch() != 2 {
		t.Fatalf("steady-state failure churned the epoch to %d", m.Ring().Epoch())
	}

	p.set("n01", false)
	m.Sweep() // one success marks it up
	if m.Ring().Down("n01") || m.Ring().Epoch() != 3 {
		t.Fatalf("no up transition on recovery: down=%v epoch=%d", m.Ring().Down("n01"), m.Ring().Epoch())
	}

	// A single blip after recovery must not mark down again.
	p.set("n01", true)
	m.Sweep()
	if m.Ring().Down("n01") {
		t.Fatal("one blip after recovery marked the node down (stale failure count)")
	}
	if got := m.probes.Load(); got != 5 {
		t.Fatalf("probes = %d, want 5", got)
	}
}

func TestHealthLoopRunsOnInjectedClock(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	p := &flakyProbe{}
	m, err := NewMembership(Config{
		Nodes:         mkNodes(3),
		Clock:         clk,
		ProbeInterval: 250 * time.Millisecond,
		FailThreshold: 1,
		Probe:         p.probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Close()

	clk.BlockUntil(1) // loop's ticker is armed
	p.set("n02", true)
	clk.Advance(250 * time.Millisecond)
	waitProbes(t, m, 1)
	if !m.Ring().Down("n02") {
		t.Fatal("loop tick did not mark the failing node down")
	}

	p.set("n02", false)
	clk.Advance(250 * time.Millisecond)
	waitProbes(t, m, 2)
	if m.Ring().Down("n02") {
		t.Fatal("loop tick did not mark the recovered node up")
	}

	m.Close() // and the deferred Close must be a no-op
}

// waitProbes waits (bounded, real time) for the async sweep triggered
// by a delivered tick to finish.
func waitProbes(t *testing.T, m *Membership, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.probes.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("sweep %d never completed (probes=%d)", n, m.probes.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDefaultProbeChecksHealthz(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("probe hit %s, want /healthz", r.URL.Path)
		}
		w.Write([]byte("ok\n")) //nolint:errcheck // test server
	}))
	defer healthy.Close()
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer sick.Close()

	m, err := NewMembership(Config{
		Nodes: []Node{
			{ID: "healthy", URL: healthy.URL},
			{ID: "sick", URL: sick.URL},
		},
		Clock:         clock.NewManual(time.Unix(1000, 0)),
		FailThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Sweep()
	if m.Ring().Down("healthy") {
		t.Fatal("200 /healthz marked down")
	}
	if !m.Ring().Down("sick") {
		t.Fatal("503 /healthz not marked down")
	}
}
