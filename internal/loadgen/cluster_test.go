package loadgen

import (
	"testing"

	"mood/internal/service"
	"mood/internal/store"
	"mood/internal/trace"
)

// keepRetrainer keeps the engine and skips the audit — the barrier
// machinery (and the router's retrain fan-out) still runs end to end.
type keepRetrainer struct{}

func (keepRetrainer) Retrain([]trace.Trace) (service.Protector, service.Auditor, error) {
	return nil, nil, nil
}

// TestClusterFailoverKeepsInvariants is the sharded cousin of the crash
// drill: three WAL nodes behind the rendezvous router, with one node
// hard-killed mid-round, held down until the health checker marks it
// out of the ring, then rebooted from its log — all while the driver
// keeps uploading through the router under the drift-retrain mix. The
// run must reconcile to exactly the same invariants as an uninterrupted
// single-node run (exactly-once delivery, record conservation, per-user
// aggregation through scattered stats, dataset shape through the merged
// pages), and the misroute tripwire must never fire: a failover window
// may only ever surface as retryable "routing" refusals.
func TestClusterFailoverKeepsInvariants(t *testing.T) {
	ch, err := NewClusterHost(ClusterConfig{
		Dir: t.TempDir(),
		New: func(nodeID string, st store.Store) (*service.Server, error) {
			return service.New(EchoProtector{},
				service.WithNodeID(nodeID),
				service.WithStore(st),
				service.WithRetrainer(keepRetrainer{}, 0),
			)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ch.Close() })

	cfg, err := Scenario("cluster", 33, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	victim := ch.Node(ch.victim)
	failedOver := false
	cfg.Restart = func() error {
		if err := ch.FailoverOne(); err != nil {
			return err
		}
		failedOver = true
		return nil
	}

	rep, err := runScenario(cfg, ch.URL())
	if err != nil {
		t.Fatal(err)
	}
	if !failedOver {
		t.Fatal("failover callback never ran")
	}
	if ch.Node(ch.victim) == victim {
		t.Fatal("failover did not replace the victim node's server")
	}
	if !rep.OK {
		t.Fatalf("invariants broken across the failover: %+v", rep.Violations)
	}
	if rep.Requests.Uploads == 0 || rep.Requests.Replays == 0 {
		t.Fatalf("degenerate run: %+v", rep.Requests)
	}

	// Never a silent misroute: every request either reached its ring
	// owner or was refused retryably.
	if got := ch.Misroutes(); got != 0 {
		t.Fatalf("misroute tripwire fired %d time(s)", got)
	}

	// The kill/reboot cycle swapped two ring generations in (down, up)
	// on top of the initial epoch.
	if epoch := ch.Ring().Epoch(); epoch < 3 {
		t.Fatalf("ring epoch = %d after a full failover, want >= 3", epoch)
	}
	for _, n := range ch.Ring().Nodes() {
		if ch.Ring().Down(n.ID) {
			t.Fatalf("node %s still marked down after the run", n.ID)
		}
	}

	// The population really was sharded: more than one node holds state.
	nodesWithUsers := 0
	for i := range 3 {
		if ch.Node(i).Stats().Users > 0 {
			nodesWithUsers++
		}
	}
	if nodesWithUsers < 2 {
		t.Fatalf("workload landed on %d node(s); rendezvous sharding looks broken", nodesWithUsers)
	}
}
