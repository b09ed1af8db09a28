// Package cluster is the multi-node tier of MooD: a versioned
// rendezvous-hash ring assigning every uploader to exactly one
// moodserver node, health-checked membership on the injected clock, and
// a thin reverse-proxy router (cmd/moodrouter mounts it) that forwards
// per-user requests to the ring owner and scatter-gathers the
// non-user-scoped reads.
//
// Ownership is sticky: the hash runs over the *configured* member set,
// and a node failing its health checks keeps its key range — the router
// answers those keys with a retryable 503 problem code "routing" until
// the owner returns. Remapping a crashed node's users onto live nodes
// would fork their WAL state and idempotency windows across two nodes
// (a retried chunk could commit twice), so failover trades a bounded
// unavailability window for exactly-once delivery. The member set is
// fixed for the ring's lifetime: changing it would remap key ranges, and
// that needs a per-user state handoff the cluster does not have.
package cluster

import (
	"fmt"
	"sort"
)

// Node is one moodserver behind the router.
type Node struct {
	// ID is the stable node identity (matches the server's -node-id).
	ID string
	// URL is the node's base URL, e.g. "http://10.0.0.7:8080".
	URL string
}

// Ring is an immutable, epoch-stamped view of cluster membership and
// health. A health transition returns a new ring with the epoch
// advanced — the same swap-whole discipline as the service tier's
// engine hot-swap — so a reader always sees one consistent generation
// and the epoch totally orders every transition.
type Ring struct {
	epoch int64
	nodes []Node          // sorted by ID
	down  map[string]bool // IDs currently failing health checks
}

// NewRing builds the first ring generation (epoch 1) over the nodes.
func NewRing(nodes []Node) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty node set")
	}
	sorted := append([]Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for i, n := range sorted {
		if n.ID == "" {
			return nil, fmt.Errorf("cluster: node %d has an empty ID", i)
		}
		if n.URL == "" {
			return nil, fmt.Errorf("cluster: node %q has an empty URL", n.ID)
		}
		if i > 0 && sorted[i-1].ID == n.ID {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", n.ID)
		}
	}
	return &Ring{epoch: 1, nodes: sorted, down: map[string]bool{}}, nil
}

// Epoch returns the ring generation.
func (r *Ring) Epoch() int64 { return r.epoch }

// Nodes returns the members, sorted by ID (a copy).
func (r *Ring) Nodes() []Node { return append([]Node(nil), r.nodes...) }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Down reports whether the node is currently marked unhealthy.
func (r *Ring) Down(id string) bool { return r.down[id] }

// Owner returns the node owning the user's key range: the member with
// the highest rendezvous score for the user, over the full configured
// set — health does not move ownership (see the package comment). ok is
// false only on an empty ring.
func (r *Ring) Owner(user string) (Node, bool) {
	if len(r.nodes) == 0 {
		return Node{}, false
	}
	best := 0
	bestScore := rendezvousScore(r.nodes[0].ID, user)
	for i := 1; i < len(r.nodes); i++ {
		// Ties break to the smaller ID via strict >: nodes are sorted.
		if s := rendezvousScore(r.nodes[i].ID, user); s > bestScore {
			best, bestScore = i, s
		}
	}
	return r.nodes[best], true
}

// withDown returns a ring with the node's health flipped (epoch+1), or
// the receiver itself when nothing changes.
func (r *Ring) withDown(id string, down bool) *Ring {
	if r.down[id] == down {
		return r
	}
	nd := make(map[string]bool, len(r.down)+1)
	for k := range r.down {
		nd[k] = true
	}
	if down {
		nd[id] = true
	} else {
		delete(nd, id)
	}
	return &Ring{epoch: r.epoch + 1, nodes: r.nodes, down: nd}
}

// rendezvousScore is the highest-random-weight hash of (node, user):
// FNV-1a over the pair with a strong avalanche finalizer. It is a fixed
// function — no per-process seed — so the assignment table is
// byte-identical across restarts and across every router replica.
func rendezvousScore(node, user string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= prime64
	}
	h *= prime64 // NUL separator: ("ab","c") and ("a","bc") must differ
	for i := 0; i < len(user); i++ {
		h ^= uint64(user[i])
		h *= prime64
	}
	// fmix64 finalizer: FNV alone clusters on short, similar keys; the
	// skew bound over millions of users needs full avalanche.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
