package service

import (
	"net/http"
	"strconv"
	"sync/atomic"
)

// Cluster node identity. A moodserver deployed behind cmd/moodrouter is
// given a stable node ID (WithNodeID / -node-id); the router stamps
// every request it forwards with the ID of the ring owner it computed,
// and the node refuses requests stamped for somebody else. Ownership
// mistakes therefore fail loudly as a retryable 503 — never a silent
// misroute that would tear one user's state across two nodes' shards,
// WALs and idempotency windows.

// ClusterOwnerHeader names the node the router computed as the owner of
// the request's user. A node with a configured ID rejects a mismatch.
const ClusterOwnerHeader = "X-Mood-Cluster-Owner"

// RingEpochHeader carries the router's ring epoch; the node remembers
// the highest epoch observed (served back in the stats node section) so
// aggregated stats can attribute counters to a ring generation.
const RingEpochHeader = "X-Mood-Ring-Epoch"

// NodeStats is the `node` section of GET /v2/stats, present when the
// server was started with a node ID.
type NodeStats struct {
	// ID is the stable node identity within the cluster.
	ID string `json:"id"`
	// RingEpoch is the highest router ring epoch this node has seen
	// (0 until the first stamped request arrives).
	RingEpoch int64 `json:"ring_epoch"`
	// BootedAt is the boot instant in unix seconds on the server clock.
	BootedAt int64 `json:"booted_at"`
	// Misroutes counts requests stamped for a different node and
	// refused. Any value above zero means a router held a stale ring
	// long enough to forward against it.
	Misroutes int64 `json:"misroutes"`
}

// nodeState is the per-node cluster bookkeeping behind NodeStats.
type nodeState struct {
	id        string
	bootedAt  int64
	ringEpoch atomic.Int64
	misroutes atomic.Int64
}

// NodeStats reports the cluster identity section (zero value when no
// node ID is configured).
func (s *Server) NodeStats() NodeStats {
	if s.node == nil {
		return NodeStats{}
	}
	return NodeStats{
		ID:        s.node.id,
		RingEpoch: s.node.ringEpoch.Load(),
		BootedAt:  s.node.bootedAt,
		Misroutes: s.node.misroutes.Load(),
	}
}

// ownerGuard is the misroute tripwire, mounted only when a node ID is
// configured: requests stamped by the router for another node answer a
// retryable 503 with the stable "routing" code instead of executing
// against the wrong node's state. It sits after the metrics layer so
// the refusal is counted under the route it names.
func (s *Server) ownerGuard(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if raw := r.Header.Get(RingEpochHeader); raw != "" {
			if e, err := strconv.ParseInt(raw, 10, 64); err == nil {
				storeMax(&s.node.ringEpoch, e)
			}
		}
		if owner := r.Header.Get(ClusterOwnerHeader); owner != "" && owner != s.node.id {
			s.node.misroutes.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, CodeRouting,
				"request routed for node "+owner+" reached node "+s.node.id+" (stale ring)")
			return
		}
		next.ServeHTTP(w, r)
	})
}
