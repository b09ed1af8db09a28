package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"mood/internal/service"
)

// Router is the thin forwarding tier in front of the sharded
// moodservers: stateless apart from the ring, so any number of replicas
// can run behind one VIP. Per-user rows of the v2 route table forward
// to the ring owner of the request's user; non-user-scoped reads
// scatter to every member and gather an exact aggregate — or answer a
// retryable 503 problem code "routing" when a member is failing over,
// because an aggregate silently missing one node's counters would break
// every conservation law downstream.
//
// The router speaks the v2 surface only, and answers only the JSON
// dialect of GET /v2/dataset (CSV/NDJSON negotiation remains a
// single-node feature; the router itself reads the nodes' NDJSON).
type Router struct {
	m     *Membership
	mux   *http.ServeMux
	proxy *http.Client
	token string
	log   io.Writer
	// bodyCap is maxNodeBody, but for the tests that overrun it.
	bodyCap int64
}

// maxNodeBody is the most a node may answer a router-originated request
// with: a longer body is refused, never cut short.
const maxNodeBody = 64 << 20

// RouterConfig wires a Router.
type RouterConfig struct {
	// Membership owns the ring the router routes over.
	Membership *Membership
	// Token, when non-empty, authenticates router-originated scatter
	// and fan-out requests against the nodes. Owner-forwarded requests
	// pass the client's own Authorization header through instead.
	Token string
	// HTTPClient talks to the nodes; nil builds a timeout-free client
	// (batch streams are long-lived; per-request contexts still bound
	// everything the caller bounds).
	HTTPClient *http.Client
	// Log receives human-oriented routing notes; nil discards.
	Log io.Writer
}

// NewRouter builds the routing handler.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Membership == nil {
		return nil, fmt.Errorf("cluster: router needs a membership")
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	rt := &Router{m: cfg.Membership, proxy: cfg.HTTPClient, token: cfg.Token, log: cfg.Log, bodyCap: maxNodeBody}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("POST /v2/traces", rt.handleTraces)
	mux.HandleFunc("GET /v2/users/{id}", rt.handleUser)
	mux.HandleFunc("GET /v2/dataset", rt.handleDataset)
	mux.HandleFunc("GET /v2/stats", rt.handleStats)
	mux.HandleFunc("GET /v2/metrics", rt.handleMetrics)
	mux.HandleFunc("GET /v2/jobs", rt.handleJobs)
	mux.HandleFunc("GET /v2/jobs/{id}", rt.handleJob)
	mux.HandleFunc("POST /v2/admin/retrain", rt.handleRetrain)
	mux.HandleFunc("GET /v2/openapi.json", rt.handleOpenAPI)
	mux.HandleFunc("/", rt.handleNotFound)
	rt.mux = mux
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// ---------------------------------------------------------------------------
// Problem rendering. The router answers in the service tier's closed
// problem+json dialect; "routing" refusals always carry Retry-After so
// a failover window looks to clients exactly like a shed.

func writeProblem(w http.ResponseWriter, p service.Problem) {
	w.Header().Set("Content-Type", service.ProblemContentType)
	w.WriteHeader(p.Status)
	json.NewEncoder(w).Encode(p) //nolint:errcheck // headers are gone
}

func routingUnavailable(w http.ResponseWriter, detail string) {
	w.Header().Set("Retry-After", "1")
	writeProblem(w, service.NewProblem(http.StatusServiceUnavailable, service.CodeRouting, detail))
}

// routerMethods are the methods the router's patterns use.
var routerMethods = []string{http.MethodGet, http.MethodPost}

// handleNotFound answers what no route matched as a node does: a path
// served under other methods gets the node's 405 and Allow header, any
// other path a 404.
func (rt *Router) handleNotFound(w http.ResponseWriter, r *http.Request) {
	if allow, _ := service.AllowedMethods(rt.mux, routerMethods, r, func(p string) bool { return p != "/" }); allow != "" {
		service.WriteMethodNotAllowed(w, r, allow)
		return
	}
	writeProblem(w, service.NewProblem(http.StatusNotFound, service.CodeNotFound,
		"unknown resource (the cluster router serves the /v2 surface)"))
}

// handleHealthz is the router's own liveness plus a ring summary, so an
// operator (or another router's health checker) sees cluster health in
// one read even while /v2/stats is failing closed.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ring := rt.m.Ring()
	type nodeHealth struct {
		ID   string `json:"id"`
		Down bool   `json:"down"`
	}
	nodes := make([]nodeHealth, 0, ring.Len())
	for _, n := range ring.Nodes() {
		nodes = append(nodes, nodeHealth{ID: n.ID, Down: ring.Down(n.ID)})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck // headers are gone
		"status": "ok", "ring_epoch": ring.Epoch(), "nodes": nodes,
	})
}

// ---------------------------------------------------------------------------
// Per-user forwarding.

// handleTraces forwards the NDJSON batch stream to the owner of the
// batch's user. The X-Mood-User header is mandatory here: it is the
// routing key, and a mixed-user batch has no single owner (split such
// batches per user client-side).
func (rt *Router) handleTraces(w http.ResponseWriter, r *http.Request) {
	user := r.Header.Get(service.UserHeader)
	if user == "" {
		writeProblem(w, service.NewProblem(http.StatusBadRequest, service.CodeBadRequest,
			"cluster routing requires the "+service.UserHeader+" header (one user per batch)"))
		return
	}
	rt.forwardToOwner(w, r, user)
}

func (rt *Router) handleUser(w http.ResponseWriter, r *http.Request) {
	rt.forwardToOwner(w, r, r.PathValue("id"))
}

// forwardToOwner proxies the request to the ring owner of user, or
// answers the retryable routing refusal while the owner is failing
// over. Ownership is sticky (see the package comment), so a key's
// requests are never silently served by a non-owner.
func (rt *Router) forwardToOwner(w http.ResponseWriter, r *http.Request, user string) {
	ring := rt.m.Ring()
	owner, ok := ring.Owner(user)
	if !ok {
		routingUnavailable(w, "no cluster members configured")
		return
	}
	if ring.Down(owner.ID) {
		routingUnavailable(w, "node "+owner.ID+" (owner of this user) is failing over; retry")
		return
	}
	rt.proxyTo(w, r, owner, ring.Epoch())
}

// hopHeaders are the hop-by-hop headers a proxy must not relay.
var hopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// proxyTo streams the request to the node and the response back,
// flushing per chunk so NDJSON batch results flow full-duplex through
// the router exactly as they do node-direct. A transport-level failure
// before the response starts maps to the retryable routing refusal.
func (rt *Router) proxyTo(w http.ResponseWriter, r *http.Request, node Node, epoch int64) {
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex() //nolint:errcheck // best effort; plain writers just buffer

	out, err := http.NewRequestWithContext(r.Context(), r.Method, node.URL+r.URL.RequestURI(), r.Body)
	if err != nil {
		writeProblem(w, service.NewProblem(http.StatusBadRequest, service.CodeBadRequest, err.Error()))
		return
	}
	out.Header = r.Header.Clone()
	for _, h := range hopHeaders {
		out.Header.Del(h)
	}
	out.Header.Set(service.ClusterOwnerHeader, node.ID)
	out.Header.Set(service.RingEpochHeader, strconv.FormatInt(epoch, 10))
	out.ContentLength = r.ContentLength

	resp, err := rt.proxy.Do(out)
	if err != nil {
		fmt.Fprintf(rt.log, "cluster: forward to %s failed: %v\n", node.ID, err)
		routingUnavailable(w, "node "+node.ID+" unreachable; retry")
		return
	}
	defer resp.Body.Close()

	hdr := w.Header()
	for k, vs := range resp.Header {
		if isHopHeader(k) {
			continue
		}
		hdr[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	bp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bp)
	buf := *bp
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			rc.Flush() //nolint:errcheck // client gone; the next write fails
		}
		if rerr != nil {
			return
		}
	}
}

// copyBufs recycles proxyTo's copy buffers: one per forwarded request,
// dead once its response is relayed.
var copyBufs = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

func isHopHeader(k string) bool {
	for _, h := range hopHeaders {
		if strings.EqualFold(h, k) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Scatter-gather plumbing.

// fanResult is one node's answer to a router-originated request.
type fanResult struct {
	node   Node
	status int
	header http.Header
	// body is pooled: whoever holds the results hands them to freeBodies
	// once nothing references the bytes any more. nil when err is set.
	body *bytes.Buffer
	err  error
}

func freeBodies(results []fanResult) {
	for _, fr := range results {
		service.PutBuffer(fr.body)
	}
}

// fanout issues method+path (path includes the query) to every node in
// parallel and returns the answers in node order. Router-originated
// requests authenticate with the router's token and are stamped with
// the ring epoch (but no owner: they are deliberately node-agnostic).
// hdr, when non-nil, supplies request headers of a node's own.
func (rt *Router) fanout(r *http.Request, nodes []Node, epoch int64, method, path string, hdr func(Node) http.Header) []fanResult {
	out := make([]fanResult, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n Node) {
			defer wg.Done()
			var h http.Header
			if hdr != nil {
				h = hdr(n)
			}
			out[i] = rt.fetchOne(r, n, epoch, method, path, h)
		}(i, n)
	}
	wg.Wait()
	return out
}

// fetchOne gathers one node's whole answer. The body is read to its end
// or not at all: a transport error mid-body and a body over the cap are
// both failures of the node, never a shorter body.
func (rt *Router) fetchOne(r *http.Request, n Node, epoch int64, method, path string, hdr http.Header) fanResult {
	req, err := http.NewRequestWithContext(r.Context(), method, n.URL+path, nil)
	if err != nil {
		return fanResult{node: n, err: err}
	}
	req.Header.Set("Accept", "application/json")
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	req.Header.Set(service.RingEpochHeader, strconv.FormatInt(epoch, 10))
	if rt.token != "" {
		req.Header.Set("Authorization", "Bearer "+rt.token)
	}
	resp, err := rt.proxy.Do(req)
	if err != nil {
		return fanResult{node: n, err: err}
	}
	defer resp.Body.Close()
	body, err := service.ReadBody(resp, rt.bodyCap)
	if err != nil {
		return fanResult{node: n, err: err}
	}
	return fanResult{node: n, status: resp.StatusCode, header: resp.Header, body: body}
}

// wholeCluster returns the current ring when every member is healthy,
// or answers the routing refusal and reports false. The exact
// aggregates (stats, dataset, jobs, retrain, metrics) fail closed: a
// partial aggregate would silently violate the conservation laws the
// soak harness checks.
func (rt *Router) wholeCluster(w http.ResponseWriter) (*Ring, bool) {
	ring := rt.m.Ring()
	var down []string
	for _, n := range ring.Nodes() {
		if ring.Down(n.ID) {
			down = append(down, n.ID)
		}
	}
	if len(down) > 0 {
		routingUnavailable(w, "cluster degraded (down: "+strings.Join(down, ", ")+"); aggregate reads retry until whole")
		return nil, false
	}
	return ring, true
}

// relay writes one gathered node response through verbatim.
func relay(w http.ResponseWriter, fr fanResult) {
	for k, vs := range fr.header {
		if isHopHeader(k) {
			continue
		}
		w.Header()[k] = vs
	}
	w.WriteHeader(fr.status)
	w.Write(fr.body.Bytes()) //nolint:errcheck // headers are gone
}

// gatherWhole runs a fan-out across the whole cluster and hands back
// the results only when every node answered wantStatus; a transport
// failure answers the routing refusal, any other status is relayed
// verbatim (first failing node in ID order). Reported false means the
// response has been written; reported true, the caller owns the
// results' bodies (freeBodies).
func (rt *Router) gatherWhole(w http.ResponseWriter, r *http.Request, method, path string, wantStatus int) ([]fanResult, *Ring, bool) {
	ring, ok := rt.wholeCluster(w)
	if !ok {
		return nil, nil, false
	}
	results := rt.fanout(r, ring.Nodes(), ring.Epoch(), method, path, nil)
	if !allAnswered(w, results, wantStatus) {
		freeBodies(results)
		return nil, nil, false
	}
	return results, ring, true
}

// allAnswered reports whether every node answered, with one of the
// wanted statuses; if not it writes the response: the routing refusal
// for an unreachable node (or one whose body broke off or overran the
// cap), the node's own answer for any other status.
func allAnswered(w http.ResponseWriter, results []fanResult, want ...int) bool {
	for _, fr := range results {
		if fr.err != nil {
			routingUnavailable(w, "node "+fr.node.ID+" unreachable or its answer unreadable; retry")
			return false
		}
		if !slices.Contains(want, fr.status) {
			relay(w, fr)
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Aggregated reads.

// NodeStatus is one member's entry in the aggregated stats payload.
type NodeStatus struct {
	ID   string `json:"id"`
	URL  string `json:"url"`
	Down bool   `json:"down"`
	// Stats is the node's full stats payload (per-node counters,
	// persistence health and node identity sections).
	Stats *service.StatsPayload `json:"stats,omitempty"`
}

// ClusterSection is the `cluster` section of the aggregated stats.
type ClusterSection struct {
	RingEpoch int64        `json:"ring_epoch"`
	Nodes     []NodeStatus `json:"nodes"`
}

// ClusterStatsPayload is the router's GET /v2/stats body: the exact
// cluster-wide ServerStats aggregate (user sets are disjoint by
// routing, so plain sums are exact) plus the per-node breakdown.
type ClusterStatsPayload struct {
	service.ServerStats
	Cluster ClusterSection `json:"cluster"`
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	results, ring, ok := rt.gatherWhole(w, r, http.MethodGet, "/v2/stats", http.StatusOK)
	if !ok {
		return
	}
	defer freeBodies(results)
	agg := ClusterStatsPayload{Cluster: ClusterSection{RingEpoch: ring.Epoch()}}
	for _, fr := range results {
		var sp service.StatsPayload
		if err := json.Unmarshal(fr.body.Bytes(), &sp); err != nil {
			routingUnavailable(w, "node "+fr.node.ID+" answered an undecodable stats payload")
			return
		}
		agg.Uploads += sp.Uploads
		agg.Users += sp.Users
		agg.RecordsIn += sp.RecordsIn
		agg.RecordsPublished += sp.RecordsPublished
		agg.RecordsRejected += sp.RecordsRejected
		agg.RecordsQuarantined += sp.RecordsQuarantined
		agg.PublishedTraces += sp.PublishedTraces
		agg.QuarantinedTraces += sp.QuarantinedTraces
		agg.Retrains += sp.Retrains
		agg.Cluster.Nodes = append(agg.Cluster.Nodes, NodeStatus{
			ID: fr.node.ID, URL: fr.node.URL, Down: false, Stats: &sp,
		})
	}
	writeJSON(w, http.StatusOK, agg)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	results, _, ok := rt.gatherWhole(w, r, http.MethodGet, "/v2/metrics", http.StatusOK)
	if !ok {
		return
	}
	defer freeBodies(results)
	agg := service.MetricsSnapshot{Routes: map[string]service.RouteMetrics{}}
	for _, fr := range results {
		var ms service.MetricsSnapshot
		if err := json.Unmarshal(fr.body.Bytes(), &ms); err != nil {
			routingUnavailable(w, "node "+fr.node.ID+" answered an undecodable metrics payload")
			return
		}
		for route, rm := range ms.Routes {
			cur := agg.Routes[route]
			if cur.Status == nil {
				cur.Status = map[string]int64{}
			}
			cur.Count += rm.Count
			cur.TotalMillis += rm.TotalMillis
			if rm.MaxMillis > cur.MaxMillis {
				cur.MaxMillis = rm.MaxMillis
			}
			for code, n := range rm.Status {
				cur.Status[code] += n
			}
			if cur.Count > 0 {
				cur.AvgMillis = cur.TotalMillis / float64(cur.Count)
			}
			agg.Routes[route] = cur
		}
	}
	writeJSON(w, http.StatusOK, agg)
}

func (rt *Router) handleJobs(w http.ResponseWriter, r *http.Request) {
	path := "/v2/jobs"
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	results, _, ok := rt.gatherWhole(w, r, http.MethodGet, path, http.StatusOK)
	if !ok {
		return
	}
	defer freeBodies(results)
	merged := service.JobList{Jobs: []service.JobStatus{}}
	for _, fr := range results {
		var jl service.JobList
		if err := json.Unmarshal(fr.body.Bytes(), &jl); err != nil {
			routingUnavailable(w, "node "+fr.node.ID+" answered an undecodable job list")
			return
		}
		merged.Jobs = append(merged.Jobs, jl.Jobs...)
		merged.Total += jl.Total
	}
	// Job IDs are random; ID order is the only stable cross-node order.
	sort.Slice(merged.Jobs, func(i, j int) bool { return merged.Jobs[i].ID < merged.Jobs[j].ID })
	// The nodes refused a malformed limit; the merge keeps one node's page.
	limit := service.DefaultPageLimit
	if n, err := strconv.Atoi(r.URL.Query().Get("limit")); err == nil && n > 0 {
		limit = n
	}
	merged.Jobs = merged.Jobs[:min(limit, len(merged.Jobs))]
	writeJSON(w, http.StatusOK, merged)
}

// handleJob scatters the job lookup: job IDs are crypto-random and
// node-local, so the holder answers 200 and everyone else 404. A 200
// relays immediately; all-404 with the whole cluster reachable is a
// real 404; anything less than whole keeps the lookup retryable — the
// job may live on the unreachable node.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	ring := rt.m.Ring()
	var up []Node
	degraded := false
	for _, n := range ring.Nodes() {
		if ring.Down(n.ID) {
			degraded = true
			continue
		}
		up = append(up, n)
	}
	results := rt.fanout(r, up, ring.Epoch(), http.MethodGet, "/v2/jobs/"+url.PathEscape(r.PathValue("id")), nil)
	defer freeBodies(results)
	var firstOther *fanResult
	for i := range results {
		fr := &results[i]
		if fr.err != nil {
			degraded = true
			continue
		}
		if fr.status == http.StatusOK {
			relay(w, *fr)
			return
		}
		if fr.status != http.StatusNotFound && firstOther == nil {
			firstOther = fr
		}
	}
	if firstOther != nil {
		relay(w, *firstOther)
		return
	}
	if degraded {
		routingUnavailable(w, "job not found on reachable nodes and part of the cluster is failing over; retry")
		return
	}
	writeProblem(w, service.NewProblem(http.StatusNotFound, service.CodeNotFound, "unknown job"))
}

func (rt *Router) handleRetrain(w http.ResponseWriter, r *http.Request) {
	results, _, ok := rt.gatherWhole(w, r, http.MethodPost, "/v2/admin/retrain", http.StatusOK)
	if !ok {
		return
	}
	defer freeBodies(results)
	var agg service.RetrainReport
	for _, fr := range results {
		var rr service.RetrainReport
		if err := json.Unmarshal(fr.body.Bytes(), &rr); err != nil {
			routingUnavailable(w, "node "+fr.node.ID+" answered an undecodable retrain report")
			return
		}
		// User histories are disjoint by routing: sums are exact. The
		// barrier's wall time, and each phase's, is the slowest node's.
		agg.HistoryUsers += rr.HistoryUsers
		agg.HistoryRecords += rr.HistoryRecords
		agg.Audited += rr.Audited
		agg.Quarantined += rr.Quarantined
		agg.DurationMillis = max(agg.DurationMillis, rr.DurationMillis)
		agg.TrainMillis = max(agg.TrainMillis, rr.TrainMillis)
		agg.AuditMillis = max(agg.AuditMillis, rr.AuditMillis)
	}
	writeJSON(w, http.StatusOK, agg)
}

// handleOpenAPI serves the contract from any healthy node (every node
// generates the identical document from the same route table).
func (rt *Router) handleOpenAPI(w http.ResponseWriter, r *http.Request) {
	ring := rt.m.Ring()
	for _, n := range ring.Nodes() {
		if ring.Down(n.ID) {
			continue
		}
		fr := rt.fetchOne(r, n, ring.Epoch(), http.MethodGet, "/v2/openapi.json", nil)
		if fr.err == nil {
			relay(w, fr)
			service.PutBuffer(fr.body)
			return
		}
	}
	routingUnavailable(w, "no healthy node to serve the OpenAPI document; retry")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // headers are gone
}
