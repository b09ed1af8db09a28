package cluster

import (
	"fmt"
	"hash/fnv"
	"testing"
)

func mkNodes(n int) []Node {
	out := make([]Node, n)
	for i := range out {
		out[i] = Node{ID: fmt.Sprintf("n%02d", i), URL: fmt.Sprintf("http://node-%02d", i)}
	}
	return out
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty node set accepted")
	}
	if _, err := NewRing([]Node{{ID: "", URL: "http://x"}}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if _, err := NewRing([]Node{{ID: "a", URL: ""}}); err == nil {
		t.Fatal("empty URL accepted")
	}
	if _, err := NewRing([]Node{{ID: "a", URL: "http://1"}, {ID: "a", URL: "http://2"}}); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	r, err := NewRing([]Node{{ID: "b", URL: "http://2"}, {ID: "a", URL: "http://1"}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != 1 {
		t.Fatalf("fresh ring epoch = %d, want 1", r.Epoch())
	}
	if ns := r.Nodes(); ns[0].ID != "a" || ns[1].ID != "b" {
		t.Fatalf("nodes not sorted by ID: %v", ns)
	}
}

func TestRingTransitionsAdvanceEpoch(t *testing.T) {
	r, err := NewRing(mkNodes(3))
	if err != nil {
		t.Fatal(err)
	}
	d := r.withDown("n01", true)
	if d.Epoch() != 2 || !d.Down("n01") || len(d.down) != 1 {
		t.Fatalf("down transition: epoch=%d down=%v count=%d", d.Epoch(), d.Down("n01"), len(d.down))
	}
	if again := d.withDown("n01", true); again != d {
		t.Fatal("no-op down transition allocated a new generation")
	}
	u := d.withDown("n01", false)
	if u.Epoch() != 3 || u.Down("n01") {
		t.Fatalf("up transition: epoch=%d down=%v", u.Epoch(), u.Down("n01"))
	}
	if r.Down("n01") {
		t.Fatal("transition mutated the original ring")
	}
}

func TestOwnerIgnoresHealth(t *testing.T) {
	r, err := NewRing(mkNodes(3))
	if err != nil {
		t.Fatal(err)
	}
	owner, ok := r.Owner("user-42")
	if !ok {
		t.Fatal("no owner on a non-empty ring")
	}
	d := r.withDown(owner.ID, true)
	after, ok := d.Owner("user-42")
	if !ok || after.ID != owner.ID {
		t.Fatalf("ownership moved on health transition: %s -> %s", owner.ID, after.ID)
	}
}

// TestAssignmentDeterminism pins a checksum of the full assignment
// table. The rendezvous hash has no per-process seed, so the table must
// be byte-identical across restarts and across replicas — a changed
// checksum here means every deployed router would disagree with every
// node about ownership.
func TestAssignmentDeterminism(t *testing.T) {
	r, err := NewRing(mkNodes(5))
	if err != nil {
		t.Fatal(err)
	}
	sum := fnv.New64a()
	for i := 0; i < 10000; i++ {
		owner, _ := r.Owner(fmt.Sprintf("user-%06d", i))
		fmt.Fprintf(sum, "%s\n", owner.ID)
	}
	const pinned = uint64(0x526596beb8c5fd9b)
	if got := sum.Sum64(); got != pinned {
		t.Fatalf("assignment checksum = %#x, want %#x (the hash changed: every router/node pair now disagrees)", got, pinned)
	}
}

// TestDistributionSkew bounds per-node load over a large synthetic user
// population at the cluster sizes we actually deploy.
func TestDistributionSkew(t *testing.T) {
	users := 1_000_000
	if testing.Short() {
		users = 100_000
	}
	for _, size := range []int{3, 5, 16} {
		size := size
		t.Run(fmt.Sprintf("nodes=%d", size), func(t *testing.T) {
			r, err := NewRing(mkNodes(size))
			if err != nil {
				t.Fatal(err)
			}
			counts := map[string]int{}
			for i := 0; i < users; i++ {
				owner, _ := r.Owner(fmt.Sprintf("user-%07d", i))
				counts[owner.ID]++
			}
			mean := float64(users) / float64(size)
			for id, c := range counts {
				skew := float64(c) / mean
				if skew < 0.9 || skew > 1.1 {
					t.Errorf("node %s holds %d users (%.3f of mean; bound 0.9..1.1)", id, c, skew)
				}
			}
		})
	}
}

// TestMinimalRemap is the rendezvous property any future rebalance
// would rest on: a ring without one node moves exactly that node's key
// range (≈1/N of users) and nothing else. The hash is stateless, so
// rings built by NewRing over the two member sets show it.
func TestMinimalRemap(t *testing.T) {
	const users = 100_000
	const victim = "n02"
	nodes := mkNodes(5)
	r, err := NewRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	var survivors []Node
	for _, n := range nodes {
		if n.ID != victim {
			survivors = append(survivors, n)
		}
	}
	shrunk, err := NewRing(survivors)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < users; i++ {
		user := fmt.Sprintf("user-%06d", i)
		before, _ := r.Owner(user)
		after, _ := shrunk.Owner(user)
		if after.ID != before.ID {
			if before.ID != victim {
				t.Fatalf("%s moved %s -> %s although %s was the node removed", user, before.ID, after.ID, victim)
			}
			moved++
		} else if before.ID == victim {
			t.Fatalf("%s still assigned to removed node %s", user, victim)
		}
	}
	frac := float64(moved) / float64(users)
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("remapped fraction = %.3f, want ≈ 1/5", frac)
	}
}

func BenchmarkOwner(b *testing.B) {
	r, _ := NewRing(mkNodes(5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Owner("user-123456")
	}
}
