package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mood/internal/clock"
	"mood/internal/core"
	"mood/internal/service"
	"mood/internal/store"
	"mood/internal/trace"
)

// echoProtector publishes every upload as one fragment under the
// deterministic pseudonym "anon-"+user, so the cluster dataset's merge
// order is predictable from the input users.
type echoProtector struct{}

func (echoProtector) Protect(t trace.Trace) (core.Result, error) {
	return core.Result{
		User:         t.User,
		TotalRecords: t.Len(),
		Pieces: []core.Piece{{
			Trace:         t.WithUser("anon-" + t.User),
			Mechanism:     "echo",
			SourceRecords: t.Len(),
		}},
	}, nil
}

// harness is a live 3-node cluster: real service.Servers behind real
// listeners, a membership with a test-controlled probe, and the router
// in front. Health transitions are driven deterministically via
// probe.set + m.Sweep (no background loop).
type harness struct {
	t        *testing.T
	servers  []*service.Server
	backends []*httptest.Server
	probe    *flakyProbe
	m        *Membership
	router   *httptest.Server
}

func newHarness(t *testing.T, size int, opts ...service.Option) *harness {
	t.Helper()
	return newHarnessWith(t, size, func(int) service.Protector { return echoProtector{} }, opts...)
}

// newHarnessWith is newHarness with a per-node protector constructor,
// for tests that need node-local pseudonym behaviour (e.g. the real
// engine's colliding per-node sequences).
func newHarnessWith(t *testing.T, size int, mk func(i int) service.Protector, opts ...service.Option) *harness {
	t.Helper()
	h := &harness{t: t, probe: &flakyProbe{}}
	nodes := make([]Node, size)
	for i := 0; i < size; i++ {
		id := fmt.Sprintf("n%02d", i)
		srv, err := service.New(mk(i), append([]service.Option{service.WithNodeID(id)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		h.servers = append(h.servers, srv)
		h.backends = append(h.backends, hs)
		nodes[i] = Node{ID: id, URL: hs.URL}
	}
	m, err := NewMembership(Config{Nodes: nodes, FailThreshold: 1, Probe: h.probe.probe})
	if err != nil {
		t.Fatal(err)
	}
	h.m = m
	rt, err := NewRouter(RouterConfig{Membership: m})
	if err != nil {
		t.Fatal(err)
	}
	h.router = httptest.NewServer(rt)
	t.Cleanup(func() {
		h.router.Close()
		for i, hs := range h.backends {
			hs.Close()
			h.servers[i].Close()
		}
	})
	return h
}

func (h *harness) client() *service.Client { return service.NewClient(h.router.URL) }

// jobs lists the cluster's jobs through the router's GET /v2/jobs?query.
func (h *harness) jobs(t *testing.T, query string) service.JobList {
	t.Helper()
	resp, err := http.Get(h.router.URL + "/v2/jobs?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list service.JobList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	return list
}

// upload pushes nrec records for user through the router and fails the
// test on any non-200 chunk.
func (h *harness) upload(user string, nrec int) {
	h.t.Helper()
	recs := make([]trace.Record, nrec)
	for i := range recs {
		recs[i] = trace.Record{Lat: 48.8, Lon: 2.3, TS: int64(1700000000 + i*60)}
	}
	results, err := h.client().UploadBatch([]service.BatchChunk{{User: user, Records: recs}})
	if err != nil {
		h.t.Fatalf("upload %s: %v", user, err)
	}
	for _, r := range results {
		if r.Status != http.StatusOK {
			h.t.Fatalf("upload %s: chunk status %d (%s %s)", user, r.Status, r.Code, r.Error)
		}
	}
}

func (h *harness) ownerIdx(user string) int {
	h.t.Helper()
	owner, ok := h.m.Ring().Owner(user)
	if !ok {
		h.t.Fatal("empty ring")
	}
	for i := range h.servers {
		if h.m.Ring().Nodes()[i].ID == owner.ID {
			return i
		}
	}
	h.t.Fatalf("owner %s not in harness", owner.ID)
	return -1
}

func (h *harness) misrouteTotal() int64 {
	var total int64
	for _, s := range h.servers {
		total += s.NodeStats().Misroutes
	}
	return total
}

func TestRouterForwardsToOwner(t *testing.T) {
	h := newHarness(t, 3)
	const users = 20
	for i := 0; i < users; i++ {
		h.upload(fmt.Sprintf("user-%03d", i), 3)
	}
	// Every user's rows live on exactly the ring owner.
	for i := 0; i < users; i++ {
		user := fmt.Sprintf("user-%03d", i)
		own := h.ownerIdx(user)
		for j, hs := range h.backends {
			_, err := service.NewClient(hs.URL).UserStats(user)
			if j == own && err != nil {
				t.Fatalf("%s missing on its owner %d: %v", user, j, err)
			}
			if j != own && err == nil {
				t.Fatalf("%s present on non-owner node %d: silent misroute", user, j)
			}
		}
	}
	// The routed total is conserved across the member set.
	var uploads int
	for _, hs := range h.backends {
		st, err := service.NewClient(hs.URL).Stats()
		if err != nil {
			t.Fatal(err)
		}
		uploads += st.Uploads
	}
	if uploads != users {
		t.Fatalf("cluster-wide uploads = %d, want %d", uploads, users)
	}
	if n := h.misrouteTotal(); n != 0 {
		t.Fatalf("misroute counter = %d, want 0", n)
	}
}

func TestRouterTracesRequireUserHeader(t *testing.T) {
	h := newHarness(t, 3)
	resp, err := http.Post(h.router.URL+"/v2/traces", "application/x-ndjson",
		strings.NewReader(`{"user":"u1","records":[{"lat":1,"lon":2,"ts":3}]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	assertProblem(t, resp, http.StatusBadRequest, service.CodeBadRequest)
}

func TestRouterFailoverIsRetryableNeverMisrouted(t *testing.T) {
	h := newHarness(t, 3)
	const user = "user-042"
	h.upload(user, 2)

	ownID := h.m.Ring().Nodes()[h.ownerIdx(user)].ID
	epoch := h.m.Ring().Epoch()
	h.probe.set(ownID, true)
	h.m.Sweep()
	if !h.m.Ring().Down(ownID) {
		t.Fatal("owner not marked down")
	}
	if e := h.m.Ring().Epoch(); e != epoch+1 {
		t.Fatalf("down transition epoch = %d, want %d", e, epoch+1)
	}

	// The owner's keys answer the retryable routing refusal...
	resp, err := http.Get(h.router.URL + "/v2/users/" + user)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	assertProblem(t, resp, http.StatusServiceUnavailable, service.CodeRouting)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("routing refusal without Retry-After")
	}

	// ...while other owners keep serving, and ownership never moved.
	served := false
	for i := 0; i < 50; i++ {
		u := fmt.Sprintf("spare-%03d", i)
		if h.m.Ring().Nodes()[h.ownerIdx(u)].ID != ownID {
			h.upload(u, 1)
			served = true
			break
		}
	}
	if !served {
		t.Fatal("no user owned by a surviving node in 50 tries")
	}

	h.probe.set(ownID, false)
	h.m.Sweep()
	if h.m.Ring().Down(ownID) {
		t.Fatal("owner not marked up after recovery")
	}
	if _, err := h.client().UserStats(user); err != nil {
		t.Fatalf("user unreachable after failback: %v", err)
	}
	if n := h.misrouteTotal(); n != 0 {
		t.Fatalf("misroute counter = %d, want 0", n)
	}
}

func TestOwnerGuardRefusesStaleRouting(t *testing.T) {
	h := newHarness(t, 3)
	// A request stamped for another node must be refused, not served.
	req, _ := http.NewRequest(http.MethodGet, h.backends[0].URL+"/v2/stats", nil)
	req.Header.Set(service.ClusterOwnerHeader, "some-other-node")
	req.Header.Set(service.RingEpochHeader, "42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	assertProblem(t, resp, http.StatusServiceUnavailable, service.CodeRouting)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("misroute refusal without Retry-After")
	}
	ns := h.servers[0].NodeStats()
	if ns.Misroutes != 1 {
		t.Fatalf("misroutes = %d, want 1", ns.Misroutes)
	}
	if ns.RingEpoch != 42 {
		t.Fatalf("node did not adopt the stamped ring epoch: %d", ns.RingEpoch)
	}

	// A correctly-stamped request is served.
	req2, _ := http.NewRequest(http.MethodGet, h.backends[0].URL+"/v2/stats", nil)
	req2.Header.Set(service.ClusterOwnerHeader, "n00")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("correctly-routed request refused: %d", resp2.StatusCode)
	}
}

func TestRouterStatsAggregation(t *testing.T) {
	h := newHarness(t, 3)
	const users, recs = 12, 4
	for i := 0; i < users; i++ {
		h.upload(fmt.Sprintf("user-%03d", i), recs)
	}

	resp, err := http.Get(h.router.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var agg ClusterStatsPayload
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	if agg.Uploads != users || agg.Users != users || agg.RecordsIn != users*recs {
		t.Fatalf("aggregate = %+v, want uploads=%d users=%d records_in=%d",
			agg.ServerStats, users, users, users*recs)
	}
	if agg.Cluster.RingEpoch != h.m.Ring().Epoch() {
		t.Fatalf("cluster ring_epoch = %d, want %d", agg.Cluster.RingEpoch, h.m.Ring().Epoch())
	}
	if len(agg.Cluster.Nodes) != 3 {
		t.Fatalf("cluster nodes = %d, want 3", len(agg.Cluster.Nodes))
	}
	var perNode int
	for _, n := range agg.Cluster.Nodes {
		if n.Stats == nil || n.Stats.Node == nil {
			t.Fatalf("node %s entry missing stats/node section", n.ID)
		}
		if n.Stats.Node.ID != n.ID {
			t.Fatalf("node section id %q under entry %q", n.Stats.Node.ID, n.ID)
		}
		if n.Stats.Node.BootedAt == 0 {
			t.Fatalf("node %s has zero boot time", n.ID)
		}
		perNode += n.Stats.Uploads
	}
	if perNode != users {
		t.Fatalf("per-node upload sum = %d, want %d", perNode, users)
	}

	// Aggregates fail closed while the cluster is degraded.
	h.probe.set("n01", true)
	h.m.Sweep()
	resp2, err := http.Get(h.router.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	assertProblem(t, resp2, http.StatusServiceUnavailable, service.CodeRouting)
}

func TestRouterDatasetMergeAndCursor(t *testing.T) {
	h := newHarness(t, 3)
	for c := 'a'; c <= 'z'; c++ {
		h.upload("user-"+string(c), 1)
	}

	// Page through the router with a limit that forces several pages.
	var got []string
	var pages int
	for page, err := range h.client().DatasetPages(service.DatasetQuery{Limit: 7}) {
		if err != nil {
			t.Fatal(err)
		}
		pages++
		for _, tr := range page.Traces {
			got = append(got, tr.User)
		}
		if page.TotalUsers != 26 {
			t.Fatalf("page total_users = %d, want 26", page.TotalUsers)
		}
	}
	if pages < 4 {
		t.Fatalf("expected ≥4 pages at limit 7, got %d", pages)
	}
	want := make([]string, 0, 26)
	for c := 'a'; c <= 'z'; c++ {
		want = append(want, "anon-user-"+string(c))
	}
	if len(got) != len(want) {
		t.Fatalf("merged dataset has %d traces, want %d", len(got), len(want))
	}
	if !sort.StringsAreSorted(got) {
		t.Fatalf("merged dataset not sorted by pseudonym: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace %d = %q, want %q", i, got[i], want[i])
		}
	}

	// Conditional requests: the combined validator round-trips.
	first, err := h.client().DatasetPageV2(service.DatasetQuery{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if first.ETag == "" {
		t.Fatal("merged page without ETag")
	}
	again, err := h.client().DatasetPageV2(service.DatasetQuery{Limit: 5, IfNoneMatch: first.ETag})
	if err != nil {
		t.Fatal(err)
	}
	if !again.NotModified {
		t.Fatal("If-None-Match with current validator not answered 304")
	}

	// New data on any node invalidates the combined validator.
	h.upload("user-zz", 1)
	third, err := h.client().DatasetPageV2(service.DatasetQuery{Limit: 5, IfNoneMatch: first.ETag})
	if err != nil {
		t.Fatal(err)
	}
	if third.NotModified {
		t.Fatal("stale validator still answered 304 after a write")
	}

	// Non-JSON negotiation is a single-node feature, and q=0 refuses a
	// media range (RFC 9110 §12.5.1); any other quality is presence.
	for accept, want := range map[string]int{
		"text/csv":                  http.StatusNotAcceptable,
		"application/json;q=0":      http.StatusNotAcceptable,
		"application/json; Q=0.000": http.StatusNotAcceptable,
		"application/json;q=0.5":    http.StatusOK,
		"text/csv, */*;q=0.1":       http.StatusOK,
	} {
		req, _ := http.NewRequest(http.MethodGet, h.router.URL+"/v2/dataset", nil)
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if want == http.StatusNotAcceptable {
			assertProblem(t, resp, want, service.CodeNotAcceptable)
		} else if resp.StatusCode != want {
			t.Errorf("Accept %q: status %d, want %d", accept, resp.StatusCode, want)
		}
		resp.Body.Close()
	}
}

// seqProtector emulates the real engine's pseudonym allocation: each
// node numbers its own pub-NNNNNN sequence, so different users on
// different nodes routinely publish under the *same* pseudonym.
type seqProtector struct{ n atomic.Int64 }

func (p *seqProtector) Protect(t trace.Trace) (core.Result, error) {
	return core.Result{
		User:         t.User,
		TotalRecords: t.Len(),
		Pieces: []core.Piece{{
			Trace:         t.WithUser(fmt.Sprintf("pub-%06d", p.n.Add(1))),
			Mechanism:     "seq",
			SourceRecords: t.Len(),
		}},
	}, nil
}

// TestRouterDatasetTieGroupPaging is the regression test for a cursor
// bug the real-engine drive surfaced: the merged dataset cursor means
// "resume strictly after this pseudonym", so if a page boundary split a
// cross-node tie group (every node has its own pub-000001, pub-000002,
// …), the unsent tied entries were silently skipped on resume. Paging
// must return every fragment exactly once regardless of limit.
func TestRouterDatasetTieGroupPaging(t *testing.T) {
	h := newHarnessWith(t, 3, func(int) service.Protector { return &seqProtector{} })
	const users = 12
	for i := 0; i < users; i++ {
		h.upload(fmt.Sprintf("tie-user-%03d", i), 1)
	}
	// Sanity: the collision premise holds — at least two nodes minted
	// pub-000001, otherwise this test is not exercising tie groups.
	var holders int
	for _, hs := range h.backends {
		page, err := service.NewClient(hs.URL).DatasetPageV2(service.DatasetQuery{Limit: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Traces) > 0 && page.Traces[0].User == "pub-000001" {
			holders++
		}
	}
	if holders < 2 {
		t.Fatalf("premise broken: pub-000001 on %d nodes, need ≥2 for a tie group", holders)
	}

	for _, limit := range []int{1, 2, 3, 5} {
		var got []string
		for page, err := range h.client().DatasetPages(service.DatasetQuery{Limit: limit}) {
			if err != nil {
				t.Fatalf("limit %d: %v", limit, err)
			}
			for _, tr := range page.Traces {
				got = append(got, tr.User)
			}
		}
		if len(got) != users {
			t.Fatalf("limit %d: paged %d fragments, want %d (tie group split across a page boundary): %v",
				limit, len(got), users, got)
		}
		if !sort.StringsAreSorted(got) {
			t.Fatalf("limit %d: merged dataset not sorted: %v", limit, got)
		}
	}
}

func TestRouterAsyncJobsAcrossCluster(t *testing.T) {
	h := newHarness(t, 3)
	const user = "async-user-7"
	results, err := h.client().UploadBatch([]service.BatchChunk{
		{User: user, Records: []trace.Record{{Lat: 1, Lon: 2, TS: 1700000000}}, Async: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Job == nil {
		t.Fatalf("async chunk did not return a job handle: %+v", results)
	}
	id := results[0].Job.ID

	// The job is found via scatter regardless of which node holds it.
	job, err := h.client().WaitJob(id, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != service.JobDone {
		t.Fatalf("job state = %s (%s)", job.State, job.Error)
	}

	// The merged list sees it too.
	if list := h.jobs(t, ""); list.Total != 1 || len(list.Jobs) != 1 || list.Jobs[0].ID != id {
		t.Fatalf("merged job list = %+v, want the one job", list)
	}

	// Unknown IDs are a real 404 only when the whole cluster answered.
	if _, err := h.client().Job("nope"); err == nil {
		t.Fatal("unknown job found")
	} else {
		var se *service.StatusError
		if !errors.As(err, &se) || se.Code != http.StatusNotFound || se.ProblemCode != service.CodeNotFound {
			t.Fatalf("unknown job error = %v", err)
		}
	}
	h.probe.set("n02", true)
	h.m.Sweep()
	if _, err := h.client().Job("nope"); err == nil {
		t.Fatal("unknown job resolved while a node is down")
	} else {
		var se *service.StatusError
		if !errors.As(err, &se) || se.ProblemCode != service.CodeRouting {
			t.Fatalf("degraded job lookup error = %v, want routing", err)
		}
	}
}

// TestRouterJobsListDefaultLimit: without a limit the merged job list
// keeps the node's default page size, not one page per node, and total
// still counts every job of the cluster.
func TestRouterJobsListDefaultLimit(t *testing.T) {
	h := newHarness(t, 3)
	const users, perUser = 6, 25
	var ids []string
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("jobs-user-%d", u)
		chunks := make([]service.BatchChunk, perUser)
		for i := range chunks {
			chunks[i] = service.BatchChunk{User: user, Async: true,
				Records: []trace.Record{{Lat: 1, Lon: 2, TS: int64(1700000000 + i)}}}
		}
		results, err := h.client().UploadBatch(chunks)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Job == nil {
				t.Fatalf("async chunk without a job handle: %+v", r)
			}
			ids = append(ids, r.Job.ID)
		}
	}
	for _, id := range ids {
		if j, err := h.client().WaitJob(id, 5*time.Second); err != nil || j.State != service.JobDone {
			t.Fatalf("job %s: %+v, %v", id, j, err)
		}
	}
	nodes := 0
	for _, srv := range h.servers {
		if srv.Stats().Uploads > 0 {
			nodes++
		}
	}
	if nodes < 2 {
		t.Fatalf("the jobs landed on %d node(s); the merge needs several", nodes)
	}

	list := h.jobs(t, "")
	if len(list.Jobs) != service.DefaultPageLimit || list.Total != users*perUser {
		t.Fatalf("merged job list: %d jobs, total %d; want %d jobs, total %d",
			len(list.Jobs), list.Total, service.DefaultPageLimit, users*perUser)
	}
	if list = h.jobs(t, "limit=7"); len(list.Jobs) != 7 || list.Total != users*perUser {
		t.Fatalf("limit 7: %d jobs, total %d", len(list.Jobs), list.Total)
	}
}

// TestUserIDsNeedingEscapes: an uploader ID may hold '?', '#' and '%'
// (validateUserID forbids only '/' and control characters), so the
// client escapes it as a path segment, and the accounting is readable
// from the owning node and through the router alike.
func TestUserIDsNeedingEscapes(t *testing.T) {
	h := newHarness(t, 3)
	for i, user := range []string{"a?b", "c#d", "e%f", "g h"} {
		h.upload(user, i+1)
		direct, err := service.NewClient(h.backends[h.ownerIdx(user)].URL).UserStats(user)
		if err != nil || direct.Uploads != 1 || direct.RecordsIn != i+1 {
			t.Fatalf("%q on its node: %+v, %v", user, direct, err)
		}
		routed, err := h.client().UserStats(user)
		if err != nil || routed != direct {
			t.Fatalf("%q through the router: %+v, %v; want %+v", user, routed, err, direct)
		}
	}
}

// TestRouterRetrainPhasesTakeSlowestNode: the nodes' phase timings
// aggregate like duration_ms — the barrier waits for the slowest node,
// so the router reports the maximum, not the sum. Every node trains for
// exactly 4 ms of the shared manual clock: the last one into the
// retrainer advances it while the others wait.
func TestRouterRetrainPhasesTakeSlowestNode(t *testing.T) {
	clk := clock.NewManual(time.Unix(1_700_000_000, 0))
	var mu sync.Mutex
	arrived := 0
	release := make(chan struct{})
	rt := service.RetrainerFunc(func([]trace.Trace) (service.Protector, service.Auditor, error) {
		mu.Lock()
		if arrived++; arrived == 3 {
			clk.Advance(4 * time.Millisecond)
			close(release)
		}
		mu.Unlock()
		select {
		case <-release:
		case <-time.After(5 * time.Second):
			return nil, nil, errors.New("the fan-out never reached all three nodes")
		}
		return echoProtector{}, nil, nil
	})
	h := newHarness(t, 3, service.WithRetrainer(rt, 0), service.WithClock(clk))
	report, err := h.client().Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if report.TrainMillis != 4 || report.AuditMillis != 0 || report.DurationMillis != 4 {
		t.Fatalf("cluster retrain = %+v, want train 4 ms, no audit, 4 ms in all", report)
	}
}

func TestRouterRetrainFanout(t *testing.T) {
	rt := service.RetrainerFunc(func(history []trace.Trace) (service.Protector, service.Auditor, error) {
		return echoProtector{}, nil, nil
	})
	h := newHarness(t, 3, service.WithRetrainer(rt, 0))
	const users, recs = 9, 2
	for i := 0; i < users; i++ {
		h.upload(fmt.Sprintf("user-%03d", i), recs)
	}
	report, err := h.client().Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if report.HistoryUsers != users || report.HistoryRecords != users*recs {
		t.Fatalf("fanned-out retrain = %+v, want users=%d records=%d", report, users, users*recs)
	}

	// Retrain fans out to every member, so a degraded cluster refuses.
	h.probe.set("n00", true)
	h.m.Sweep()
	if _, err := h.client().Retrain(); err == nil {
		t.Fatal("retrain succeeded on a degraded cluster")
	} else {
		var se *service.StatusError
		if !errors.As(err, &se) || se.ProblemCode != service.CodeRouting {
			t.Fatalf("degraded retrain error = %v, want routing", err)
		}
	}
}

func TestRouterMetricsAndOpenAPIAndFallthrough(t *testing.T) {
	h := newHarness(t, 3)
	const users = 6
	for i := 0; i < users; i++ {
		h.upload(fmt.Sprintf("user-%03d", i), 1)
	}
	ms, err := h.client().Metrics()
	if err != nil {
		t.Fatal(err)
	}
	rm, ok := ms.Routes["POST /v2/traces"]
	if !ok || rm.Count != users {
		t.Fatalf("merged metrics for POST /v2/traces = %+v, want count %d", rm, users)
	}
	if rm.AvgMillis < 0 || (rm.Count > 0 && rm.MaxMillis < 0) {
		t.Fatalf("merged latency stats malformed: %+v", rm)
	}

	resp, err := http.Get(h.router.URL + "/v2/openapi.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if doc["openapi"] == nil {
		t.Fatal("proxied OpenAPI document missing version field")
	}

	// The router serves the v2 surface only.
	resp, err = http.Get(h.router.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	assertProblem(t, resp, http.StatusNotFound, service.CodeNotFound)
}

// assertProblem checks status, media type and stable problem code.
func assertProblem(t *testing.T, resp *http.Response, status int, code service.Code) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status = %d, want %d", resp.StatusCode, status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != service.ProblemContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, service.ProblemContentType)
	}
	var p service.Problem
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Code != code {
		t.Fatalf("problem code = %q, want %q (detail: %s)", p.Code, code, p.Detail)
	}
}

// TestRouterAnswersUnmatchedLikeANode: a wrong-method or unknown-path
// request gets the same status, Allow header, media type and problem
// code from the router as from a node, as README's wire protocol
// promises for every /v2 server.
func TestRouterAnswersUnmatchedLikeANode(t *testing.T) {
	h := newHarness(t, 2)
	type answer struct {
		Status      int
		Allow, Type string
		Code        service.Code
	}
	ask := func(base, method, path string) answer {
		t.Helper()
		req, err := http.NewRequest(method, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var p service.Problem
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatalf("%s %s via %s: not a problem document: %v", method, path, base, err)
		}
		return answer{resp.StatusCode, resp.Header.Get("Allow"), resp.Header.Get("Content-Type"), p.Code}
	}
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v2/traces"},
		{http.MethodDelete, "/v2/stats"},
		{http.MethodPut, "/v2/dataset"},
		{http.MethodPost, "/v2/users/alice"},
		{http.MethodGet, "/v2/admin/retrain"},
		{http.MethodPatch, "/v2/jobs/job-1"},
		{http.MethodGet, "/v2/nope"},
		{http.MethodPost, "/v1/traces"},
	} {
		node, router := ask(h.backends[0].URL, tc.method, tc.path), ask(h.router.URL, tc.method, tc.path)
		if node.Status != http.StatusMethodNotAllowed && node.Status != http.StatusNotFound {
			t.Fatalf("%s %s: the node answered %+v, not a 405 or 404", tc.method, tc.path, node)
		}
		if router != node {
			t.Errorf("%s %s: router answered %+v, node %+v", tc.method, tc.path, router, node)
		}
	}
}

// chunkProtector publishes every upload whole under a pseudonym of its
// own (the dataset merges the fragments of one pseudonym into a trace).
type chunkProtector struct{}

func chunkPseudonym(user string, recs []trace.Record) string {
	return fmt.Sprintf("anon-%s-%d", user, recs[0].TS)
}

func (chunkProtector) Protect(t trace.Trace) (core.Result, error) {
	return core.Result{
		User:         t.User,
		TotalRecords: t.Len(),
		Pieces: []core.Piece{{
			Trace:         t.WithUser(chunkPseudonym(t.User, t.Records)),
			Mechanism:     "echo",
			SourceRecords: t.Len(),
		}},
	}, nil
}

// TestConcurrentUploadsComeBackFromTheLog: two clients upload keyed
// batches at once through the router to three nodes on in-memory logs;
// then every node crashes and reboots from its log alone. Every
// acknowledged chunk must come back exactly as it was sent. A request
// line, commit payload or WAL frame handed back to its pool while still
// in use shows here as a chunk carrying another chunk's bytes.
func TestConcurrentUploadsComeBackFromTheLog(t *testing.T) {
	const nodes, clients, batches, perBatch = 3, 2, 4, 30
	disks := make([]*store.MemFS, nodes)
	crash := make([]*store.FaultFS, nodes)
	boot := func(i int, fsys store.FS) string {
		w, err := store.NewWAL(store.WALOptions{Dir: "wal", FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := service.New(chunkProtector{}, service.WithNodeID(fmt.Sprintf("n%02d", i)),
			service.WithStore(w), service.WithCheckpointInterval(-1))
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Recover(); err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			hs.Close()
			srv.Close() //nolint:errcheck // a crashed node's log refuses the final checkpoint
		})
		return hs.URL
	}
	ring := make([]Node, nodes)
	for i := range ring {
		disks[i] = store.NewMemFS()
		crash[i] = store.NewFaultFS(disks[i])
		ring[i] = Node{ID: fmt.Sprintf("n%02d", i), URL: boot(i, crash[i])}
	}
	m, err := NewMembership(Config{Nodes: ring, FailThreshold: 1, Probe: func(Node) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{Membership: m})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt)
	t.Cleanup(router.Close)

	// Chunks of 1 to 40 records, so that pooled buffers are reused at
	// every size; each record is unique to its chunk.
	sent := make([][]service.BatchChunk, clients)
	for c := range sent {
		for b := 0; b < batches; b++ {
			user := fmt.Sprintf("user-%d-%d", c, b)
			for i := 0; i < perBatch; i++ {
				recs := make([]trace.Record, 1+(i*13+b*7)%40)
				for r := range recs {
					x := float64(((c*batches+b)*perBatch+i)*64 + r)
					recs[r] = trace.Record{Lat: 45 + x/1e5 + 1.0/3, Lon: 4 + x/7e4, TS: int64(1700000000 + x*60)}
				}
				sent[c] = append(sent[c], service.BatchChunk{User: user, Records: recs, Key: fmt.Sprintf("k-%d", i)})
			}
		}
	}
	var wg sync.WaitGroup
	for c := range sent {
		wg.Add(1)
		go func(chunks []service.BatchChunk) {
			defer wg.Done()
			cl := service.NewClient(router.URL)
			for b := 0; b < batches; b++ {
				results, err := cl.UploadBatch(chunks[b*perBatch : (b+1)*perBatch])
				if err != nil {
					t.Error(err)
					return
				}
				for _, r := range results {
					if r.Status != http.StatusOK {
						t.Errorf("%s chunk %d: %d %s %s", r.User, r.Index, r.Status, r.Code, r.Error)
					}
				}
			}
		}(sent[c])
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	want := map[string]int{}
	for _, chunks := range sent {
		for _, ch := range chunks {
			want[fmt.Sprint(chunkPseudonym(ch.User, ch.Records), ch.Records)]++
		}
	}
	got := map[string]int{}
	for i := range disks {
		crash[i].Kill()
		d, err := service.NewClient(boot(i, disks[i])).Dataset()
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range d.Traces {
			got[fmt.Sprint(tr.User, tr.Records)]++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d distinct chunks came back from the logs, %d were acknowledged", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("an acknowledged chunk came back %d times, want %d: %.120s", got[k], n, k)
		}
	}
}
