package cluster

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"mood/internal/core"
	"mood/internal/mathx"
	"mood/internal/service"
	"mood/internal/trace"
)

// ---------------------------------------------------------------------------
// The oracle: the dataset merge as the router ran it before the splice —
// decode every node's JSON page, k-way merge the decoded traces, encode
// the merged page. The splice must answer byte for byte what this does.

func oracleMerge(pages []service.DatasetPage, limit int) service.DatasetPage {
	merged := service.DatasetPage{}
	for _, p := range pages {
		if merged.Name == "" {
			merged.Name = p.Name
		}
		merged.TotalUsers += p.TotalUsers
	}
	heads := make([]int, len(pages))
	for len(merged.Traces) < limit {
		best := -1
		for i := range pages {
			if heads[i] >= len(pages[i].Traces) {
				continue
			}
			if best < 0 || pages[i].Traces[heads[i]].User < pages[best].Traces[heads[best]].User {
				best = i
			}
		}
		if best < 0 {
			break
		}
		merged.Traces = append(merged.Traces, pages[best].Traces[heads[best]])
		heads[best]++
	}
	if last := len(merged.Traces) - 1; last >= 0 {
		for i := range pages {
			if heads[i] < len(pages[i].Traces) && pages[i].Traces[heads[i]].User == merged.Traces[last].User {
				merged.Traces = append(merged.Traces, pages[i].Traces[heads[i]])
				heads[i]++
			}
		}
	}
	more := false
	for i := range pages {
		if heads[i] < len(pages[i].Traces) || pages[i].NextCursor != "" {
			more = true
		}
	}
	if merged.Traces == nil {
		merged.Traces = []trace.Trace{}
	}
	if more && len(merged.Traces) > 0 {
		merged.NextCursor = base64.RawURLEncoding.EncodeToString(
			[]byte(merged.Traces[len(merged.Traces)-1].User))
	}
	return merged
}

// ---------------------------------------------------------------------------
// An in-process cluster: real service.Servers and the real Router, joined
// by a RoundTripper that calls the node handlers directly. No sockets, so
// a fuzz iteration can afford a cluster of its own; the transport also
// counts what crosses the router↔node hop.

// published is one trace a node publishes: the pseudonym and the
// timestamps of its records.
type published struct {
	pseudonym string
	ts        []int64
}

// tableProtector publishes every upload under the pseudonym the table
// assigns its user.
type tableProtector map[string]string

func (p tableProtector) Protect(t trace.Trace) (core.Result, error) {
	return core.Result{
		User:         t.User,
		TotalRecords: t.Len(),
		Pieces:       []core.Piece{{Trace: t.WithUser(p[t.User]), Mechanism: "table", SourceRecords: t.Len()}},
	}, nil
}

type memCluster struct {
	tb       testing.TB
	nodes    []Node
	handlers map[string]http.Handler // by URL host
	router   *Router

	mu        sync.Mutex
	requests  map[string]int      // per node ID
	bodyBytes int                 // response body bytes the nodes sent the router
	inm       map[string][]string // If-None-Match values each node saw
}

func newMemCluster(tb testing.TB, perNode [][]published) *memCluster {
	tb.Helper()
	c := &memCluster{tb: tb, handlers: map[string]http.Handler{}}
	for i, pubs := range perNode {
		id := fmt.Sprintf("n%02d", i)
		table := tableProtector{}
		srv, err := service.New(table, service.WithNodeID(id), service.WithRequestTimeout(-1))
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { srv.Close() })
		host := id + ".mem"
		c.handlers[host] = srv.Handler()
		c.nodes = append(c.nodes, Node{ID: id, URL: "http://" + host})

		var batch bytes.Buffer
		enc := json.NewEncoder(&batch)
		for k, pub := range pubs {
			user := fmt.Sprintf("u%d", k)
			table[user] = pub.pseudonym
			recs := make([]trace.Record, len(pub.ts))
			for j, ts := range pub.ts {
				recs[j] = trace.Record{Lat: 45.5 + float64(j)*1.25e-3, Lon: 4.75 - float64(k)*3.5e-4, TS: ts}
			}
			if err := enc.Encode(service.BatchChunk{User: user, Records: recs}); err != nil {
				tb.Fatal(err)
			}
		}
		if len(pubs) == 0 {
			continue
		}
		req := httptest.NewRequest(http.MethodPost, "/v2/traces", &batch)
		req.Header.Set("Content-Type", service.NDJSONContentType)
		rec := httptest.NewRecorder()
		c.handlers[host].ServeHTTP(rec, req)
		dec := json.NewDecoder(rec.Body)
		for n := 0; n < len(pubs); n++ {
			var res service.BatchResult
			if err := dec.Decode(&res); err != nil || res.Status != http.StatusOK {
				tb.Fatalf("seeding node %s, chunk %d: %v / %+v", id, n, err, res)
			}
		}
	}
	m, err := NewMembership(Config{Nodes: c.nodes})
	if err != nil {
		tb.Fatal(err)
	}
	c.router, err = NewRouter(RouterConfig{Membership: m, HTTPClient: &http.Client{Transport: c}})
	if err != nil {
		tb.Fatal(err)
	}
	c.resetCounters()
	return c
}

func (c *memCluster) resetCounters() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requests, c.bodyBytes, c.inm = map[string]int{}, 0, map[string][]string{}
}

// RoundTrip is the router's transport: the request goes straight into
// the addressed node's handler.
func (c *memCluster) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := c.handlers[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no such node %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	id := strings.TrimSuffix(req.URL.Host, ".mem")
	c.mu.Lock()
	c.requests[id]++
	c.bodyBytes += rec.Body.Len()
	c.inm[id] = append(c.inm[id], req.Header.Get("If-None-Match"))
	c.mu.Unlock()
	return rec.Result(), nil
}

// get asks the router.
func (c *memCluster) get(rawQuery string, hdr http.Header) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, "/v2/dataset?"+rawQuery, nil)
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	rec := httptest.NewRecorder()
	c.router.ServeHTTP(rec, req)
	return rec
}

// oracle answers the same query the old way: the nodes' JSON pages,
// decoded, merged and re-encoded. ok=false when a node refused the query
// (the router relays such an answer; there is nothing to merge).
func (c *memCluster) oracle(rawQuery string, limit int) (body []byte, etag string, ok bool) {
	c.tb.Helper()
	pages := make([]service.DatasetPage, len(c.nodes))
	tags := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		req := httptest.NewRequest(http.MethodGet, "/v2/dataset?"+rawQuery, nil)
		req.Header.Set("Accept", "application/json")
		rec := httptest.NewRecorder()
		c.handlers[strings.TrimPrefix(n.URL, "http://")].ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, "", false
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &pages[i]); err != nil {
			c.tb.Fatalf("node %s page: %v", n.ID, err)
		}
		tags[i] = n.ID + ":" + strings.Trim(strings.TrimPrefix(rec.Header().Get("ETag"), "W/"), `"`)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(oracleMerge(pages, limit)); err != nil {
		c.tb.Fatal(err)
	}
	return buf.Bytes(), `W/"mood-cluster-` + strings.Join(tags, "+") + `"`, true
}

// checkScan pages through the router under the given filters and holds
// every page — status, body bytes, ETag, Vary — to the oracle's.
func (c *memCluster) checkScan(limit int, filters url.Values) {
	c.tb.Helper()
	cursor := ""
	for page := 0; ; page++ {
		if page > 10_000 {
			c.tb.Fatal("scan does not terminate")
		}
		q := url.Values{"limit": {strconv.Itoa(limit)}}
		for k, vs := range filters {
			q[k] = vs
		}
		if cursor != "" {
			q.Set("cursor", cursor)
		}
		raw := q.Encode()
		got := c.get(raw, nil)
		want, etag, ok := c.oracle(raw, limit)
		if !ok {
			if got.Code == http.StatusOK {
				c.tb.Fatalf("query %q: a node refused it, the router answered 200", raw)
			}
			return
		}
		if got.Code != http.StatusOK {
			c.tb.Fatalf("query %q: status %d: %s", raw, got.Code, got.Body)
		}
		if !bytes.Equal(got.Body.Bytes(), want) {
			c.tb.Fatalf("query %q: body differs from the decode-merge-encode oracle\n got %s\nwant %s", raw, got.Body, want)
		}
		if got.Header().Get("ETag") != etag || got.Header().Get("Vary") != "Accept" {
			c.tb.Fatalf("query %q: ETag %q Vary %q, want %q / Accept", raw, got.Header().Get("ETag"), got.Header().Get("Vary"), etag)
		}
		var env struct {
			NextCursor string `json:"next_cursor"`
		}
		if err := json.Unmarshal(want, &env); err != nil {
			c.tb.Fatal(err)
		}
		if env.NextCursor == "" {
			return
		}
		cursor = env.NextCursor
	}
}

// hostile pseudonyms: everything json.Encoder escapes, and bytes that
// sort differently escaped and raw.
var hostilePseudonyms = []string{
	`q"uote`, `back\slash`, `<tag>&amp;`, "new\nline", "tab\t", "é-accent", "日本", " sep", "~tilde", `"`, `\`, `\\"`, "a", "a\"", "a\\", "b",
}

func pubs(pseudonyms ...string) []published {
	out := make([]published, len(pseudonyms))
	for i, p := range pseudonyms {
		out[i] = published{pseudonym: p, ts: []int64{1000 + int64(i)*10, 1500, 2000 + int64(i)*10}}
	}
	return out
}

func seqPubs(from, to int) []published {
	var names []string
	for i := from; i <= to; i++ {
		names = append(names, fmt.Sprintf("pub-%06d", i))
	}
	return pubs(names...)
}

// uniformPubs spreads count pseudonyms keyed like the echo engine's
// (anon- and a hash) over n nodes at random, as user ownership does.
func uniformPubs(seed uint64, count, n int) [][]published {
	rng := mathx.NewRand(seed)
	perNode := make([][]published, n)
	for k := 0; k < count; k++ {
		i := rng.Intn(n)
		perNode[i] = append(perNode[i], pubs(fmt.Sprintf("anon-%016x", rng.Uint64()))...)
	}
	return perNode
}

// skewedPubs puts one node far ahead of the others, so that its share
// runs out while the page is not full.
func skewedPubs() [][]published {
	return [][]published{seqPubs(1, 400), seqPubs(1, 20), seqPubs(350, 360)}
}

// TestRouterDatasetSpliceMatchesOracle is the differential property
// test: over cluster sizes, tie groups, hostile pseudonyms, empty nodes,
// every small limit and the user/from/to filters, each page of a full
// scan is byte-identical to the decode-merge-encode oracle's. The
// skewed and uniformly keyed clusters hold enough traces for limits
// whose node share is below the limit, and for shares that run short.
func TestRouterDatasetSpliceMatchesOracle(t *testing.T) {
	cases := map[string][][]published{
		"one node":           {seqPubs(1, 9)},
		"three nodes, ties":  {seqPubs(1, 7), seqPubs(1, 5), seqPubs(3, 9)},
		"five nodes, ties":   {seqPubs(1, 4), seqPubs(1, 4), seqPubs(2, 6), nil, seqPubs(4, 4)},
		"all empty":          {nil, nil, nil},
		"one holder":         {nil, seqPubs(1, 6), nil},
		"hostile pseudonyms": {pubs(hostilePseudonyms[:6]...), pubs(hostilePseudonyms[6:11]...), pubs(hostilePseudonyms[9:]...)},
	}
	filters := []url.Values{
		nil,
		{"user": {"pub-000003"}},
		{"user": {`q"uote`}},
		{"user": {"nobody"}},
		{"from": {"1400"}, "to": {"1600"}},
		{"from": {"2025"}},
		{"to": {"1015"}},
		{"from": {"9000"}},
	}
	for name, perNode := range cases {
		t.Run(name, func(t *testing.T) {
			c := newMemCluster(t, perNode)
			for _, limit := range []int{1, 2, 3, 4, 7, 100} {
				for _, f := range filters {
					c.checkScan(limit, f)
				}
			}
		})
	}
	shared := map[string][][]published{
		"skewed":                skewedPubs(),
		"uniform keys, 3 nodes": uniformPubs(3, 600, 3),
		"uniform keys, 5 nodes": uniformPubs(5, 600, 5),
	}
	for name, perNode := range shared {
		t.Run(name, func(t *testing.T) {
			c := newMemCluster(t, perNode)
			for _, limit := range []int{50, 100, 200, 1000} {
				for _, f := range filters {
					c.checkScan(limit, f)
				}
			}
		})
	}

	// Random clusters on top of the hand-picked ones.
	rng := mathx.NewRand(15)
	for round := 0; round < 25; round++ {
		perNode := make([][]published, []int{1, 3, 5}[rng.Intn(3)])
		for i := range perNode {
			seen := map[string]bool{}
			for k := rng.Intn(8); k > 0; k-- {
				p := fmt.Sprintf("pub-%06d", 1+rng.Intn(10))
				if rng.Intn(4) == 0 {
					p = hostilePseudonyms[rng.Intn(len(hostilePseudonyms))]
				}
				if !seen[p] {
					seen[p] = true
					perNode[i] = append(perNode[i], pubs(p)...)
				}
			}
		}
		c := newMemCluster(t, perNode)
		c.checkScan(1+rng.Intn(5), nil)
		c.checkScan(1+rng.Intn(5), url.Values{"from": {"1001"}, "to": {"2005"}})
	}
}

// FuzzRouterDatasetSplice grows the property test's inputs: the fuzzer
// picks the cluster size, the limit, which node publishes what under
// which pseudonym, and a time window.
//
//	go test -fuzz=FuzzRouterDatasetSplice -fuzztime=30s -run='^$' ./internal/cluster
func FuzzRouterDatasetSplice(f *testing.F) {
	f.Add(uint8(1), uint8(2), int64(0), int64(0), []byte("pub-000001\x00pub-000002\x00pub-000001\x00pub-000003"))
	f.Add(uint8(2), uint8(0), int64(1400), int64(1600), []byte("a\"\x00a\\\x00a\x00<b>&\x00\xe6\x97\xa5"))
	f.Add(uint8(0), uint8(6), int64(5000), int64(0), []byte(""))
	f.Add(uint8(1), uint8(1), int64(0), int64(1001), []byte("x\x00x\x00x\x00x\x00y\x00y"))
	// Thirty names on one node of three and a limit of 20: that node's
	// share (15) runs short and the page is scattered again.
	var lopsided []string
	for k := 0; k < 30; k++ {
		name := fmt.Sprintf("n%02d", k)
		for (k+len(name))%3 != 0 {
			name += "x"
		}
		lopsided = append(lopsided, name)
	}
	f.Add(uint8(1), uint8(19), int64(0), int64(0), []byte(strings.Join(append(lopsided, "m", "o", "zz"), "\x00")))
	f.Fuzz(func(t *testing.T, size, limit uint8, from, to int64, names []byte) {
		perNode := make([][]published, []int{1, 3, 5}[int(size)%3])
		seen := make([]map[string]bool, len(perNode))
		for k, raw := range bytes.Split(names, []byte{0}) {
			// Pseudonyms reach a node through JSON, which has already
			// replaced what is not UTF-8.
			p := strings.ToValidUTF8(string(raw), "�")
			if p == "" || len(p) > 64 || k >= 48 {
				continue
			}
			node := (k + utf8.RuneCountInString(p)) % len(perNode)
			if seen[node] == nil {
				seen[node] = map[string]bool{}
			}
			if seen[node][p] {
				continue
			}
			seen[node][p] = true
			perNode[node] = append(perNode[node], published{pseudonym: p, ts: []int64{1000 + int64(k), 1500, 2000 + int64(k)}})
		}
		c := newMemCluster(t, perNode)
		lim := 1 + int(limit)%40
		c.checkScan(lim, nil)
		window := url.Values{}
		if from != 0 {
			window.Set("from", strconv.FormatInt(from, 10))
		}
		if to != 0 {
			window.Set("to", strconv.FormatInt(to, 10))
		}
		c.checkScan(lim, window)
		for _, pubs := range perNode {
			if len(pubs) > 0 {
				c.checkScan(lim, url.Values{"user": {pubs[0].pseudonym}})
				break
			}
		}
	})
}

// ---------------------------------------------------------------------------
// The node's share.

// scanCosts pages through the router from after start and reports, for
// each page, the node requests it took and the bytes the nodes sent and
// the router delivered.
func (c *memCluster) scanCosts(limit int, start string, page func(requests map[string]int, fetched, delivered int)) {
	c.tb.Helper()
	cursor := ""
	if start != "" {
		cursor = base64.RawURLEncoding.EncodeToString([]byte(start))
	}
	for {
		q := url.Values{"limit": {strconv.Itoa(limit)}}
		if cursor != "" {
			q.Set("cursor", cursor)
		}
		c.resetCounters()
		got := c.get(q.Encode(), nil)
		if got.Code != http.StatusOK {
			c.tb.Fatalf("query %q: status %d: %s", q.Encode(), got.Code, got.Body)
		}
		page(c.requests, c.bodyBytes, got.Body.Len())
		var env struct {
			NextCursor string `json:"next_cursor"`
		}
		if err := json.Unmarshal(got.Body.Bytes(), &env); err != nil {
			c.tb.Fatal(err)
		}
		if cursor = env.NextCursor; cursor == "" {
			return
		}
	}
}

// TestRouterDatasetFetchesItsShare holds the router to its share of a
// page. On a cluster shaped like the benchmark's — three nodes, 5,000
// traces keyed by hash, pages of 200 — full scans from eight starting
// points move at most 1.3× the bytes they deliver from the nodes to the
// router, and at most 2 % of their pages run a share short and scatter
// again at the full limit. On the skewed cluster pages do, and none
// asks a node more than twice.
func TestRouterDatasetFetchesItsShare(t *testing.T) {
	c := newMemCluster(t, uniformPubs(1, 5000, 3))
	pages, rescattered, fetched, delivered := 0, 0, 0, 0
	for _, start := range []string{"", "anon-2", "anon-4", "anon-6", "anon-8", "anon-a", "anon-c", "anon-e"} {
		c.scanCosts(200, start, func(requests map[string]int, f, d int) {
			pages++
			if len(requests) != 3 {
				t.Fatalf("a page asked %d nodes: %v", len(requests), requests)
			}
			for _, n := range requests {
				if n > 1 {
					rescattered++
					break
				}
			}
			fetched, delivered = fetched+f, delivered+d
		})
	}
	ratio := float64(fetched) / float64(delivered)
	t.Logf("%d pages, %d scattered again; the nodes sent %.3f× the bytes delivered", pages, rescattered, ratio)
	if ratio > 1.3 {
		t.Errorf("the nodes sent %d bytes for %d delivered: %.3f×, want ≤ 1.3×", fetched, delivered, ratio)
	}
	if rescattered*50 > pages {
		t.Errorf("%d of %d pages scattered again, want ≤ 2 %%", rescattered, pages)
	}

	c = newMemCluster(t, skewedPubs())
	rescattered = 0
	for _, limit := range []int{50, 100, 200, 1000} {
		c.scanCosts(limit, "", func(requests map[string]int, _, _ int) {
			again := false
			for id, n := range requests {
				if n > 2 {
					t.Fatalf("limit %d: node %s asked %d times for one page", limit, id, n)
				}
				again = again || n == 2
			}
			if again {
				rescattered++
			}
		})
	}
	t.Logf("skewed cluster: %d pages scattered again", rescattered)
	if rescattered == 0 {
		t.Fatal("premise broken: no share of the skewed cluster ran short")
	}
}

// ---------------------------------------------------------------------------
// Conditional requests.

// TestRouterDatasetConditionalScatter: the router forwards each node its
// own validator, so an unchanged dataset costs N empty 304s and moves no
// page bytes between the nodes and the router; when one node has moved
// on, only the nodes that answered 304 are asked again.
func TestRouterDatasetConditionalScatter(t *testing.T) {
	c := newMemCluster(t, [][]published{seqPubs(1, 6), seqPubs(2, 5), seqPubs(7, 9)})
	first := c.get("limit=4", nil)
	etag := first.Header().Get("ETag")
	if first.Code != http.StatusOK || etag == "" {
		t.Fatalf("first page: status %d, ETag %q", first.Code, etag)
	}

	for _, inm := range []string{etag, `"unrelated", ` + etag, strings.TrimPrefix(etag, "W/"), "*"} {
		c.resetCounters()
		again := c.get("limit=4", http.Header{"If-None-Match": {inm}})
		if again.Code != http.StatusNotModified || again.Body.Len() != 0 {
			t.Fatalf("If-None-Match %q: status %d, %d body bytes", inm, again.Code, again.Body.Len())
		}
		if again.Header().Get("ETag") != etag || again.Header().Get("Vary") != "Accept" {
			t.Fatalf("304 carries ETag %q, Vary %q", again.Header().Get("ETag"), again.Header().Get("Vary"))
		}
		if c.bodyBytes != 0 {
			t.Fatalf("If-None-Match %q: an all-304 scatter moved %d page bytes from the nodes", inm, c.bodyBytes)
		}
		for _, n := range c.nodes {
			if c.requests[n.ID] != 1 || c.inm[n.ID][0] == "" {
				t.Fatalf("node %s: %d requests, If-None-Match %q; want one conditional request",
					n.ID, c.requests[n.ID], c.inm[n.ID])
			}
		}
	}

	// One node moves on: it answers its page at once, the two others
	// answer 304 and are asked again — unconditionally, and only they.
	body := `{"user":"late","records":[{"lat":45.5,"lon":4.75,"ts":3000}]}` + "\n"
	up := httptest.NewRequest(http.MethodPost, "/v2/traces", strings.NewReader(body))
	up.Header.Set("Content-Type", service.NDJSONContentType)
	rec := httptest.NewRecorder()
	c.handlers["n01.mem"].ServeHTTP(rec, up)
	if rec.Code != http.StatusOK {
		t.Fatalf("late upload: %d %s", rec.Code, rec.Body)
	}
	c.resetCounters()
	mixed := c.get("limit=4", http.Header{"If-None-Match": {etag}})
	want, wantTag, _ := c.oracle("limit=4", 4)
	if mixed.Code != http.StatusOK || !bytes.Equal(mixed.Body.Bytes(), want) || mixed.Header().Get("ETag") != wantTag {
		t.Fatalf("mixed scatter: status %d, ETag %q (want %q), body\n%s\nwant\n%s",
			mixed.Code, mixed.Header().Get("ETag"), wantTag, mixed.Body, want)
	}
	if wantTag == etag {
		t.Fatal("premise broken: the upload did not move the cluster validator")
	}
	if c.requests["n01"] != 1 || c.requests["n00"] != 2 || c.requests["n02"] != 2 {
		t.Fatalf("requests per node %v, want n01 once and the 304 nodes twice", c.requests)
	}
	for _, id := range []string{"n00", "n02"} {
		if c.inm[id][0] == "" || c.inm[id][1] != "" {
			t.Fatalf("node %s saw If-None-Match %q, want conditional then unconditional", id, c.inm[id])
		}
	}

	// A validator that is not the cluster's is not forwarded at all.
	c.resetCounters()
	if got := c.get("limit=4", http.Header{"If-None-Match": {`W/"mood-ds-1.0"`}}); got.Code != http.StatusOK {
		t.Fatalf("foreign validator: status %d", got.Code)
	}
	for _, n := range c.nodes {
		if c.requests[n.ID] != 1 || c.inm[n.ID][0] != "" {
			t.Fatalf("foreign validator: node %s saw %d requests, If-None-Match %q", n.ID, c.requests[n.ID], c.inm[n.ID])
		}
	}
}

// ---------------------------------------------------------------------------
// Failing closed.

// scriptedRouter puts the router in front of hand-written node handlers
// behind real listeners (a handler can then die mid-response).
func scriptedRouter(t *testing.T, handlers ...http.HandlerFunc) *Router {
	t.Helper()
	nodes := make([]Node, len(handlers))
	for i, h := range handlers {
		hs := httptest.NewServer(h)
		t.Cleanup(hs.Close)
		nodes[i] = Node{ID: fmt.Sprintf("n%02d", i), URL: hs.URL}
	}
	m, err := NewMembership(Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{Membership: m})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// ndjsonPage scripts one node page: n lines pub-<from>…, with the
// headers a real node sets, then lets tamper break it.
func ndjsonPage(from, n, total int, next bool, tamper func(h http.Header, body []byte) []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var body bytes.Buffer
		last := ""
		for i := 0; i < n; i++ {
			last = fmt.Sprintf("pub-%06d", from+i)
			fmt.Fprintf(&body, `{"user":%q,"records":[{"lat":45.5,"lon":4.75,"ts":%d}]}`+"\n", last, 1000+i)
		}
		w.Header().Set("ETag", `W/"mood-ds-1.0"`)
		w.Header().Set("Content-Type", service.NDJSONContentType)
		w.Header().Set(service.TotalUsersHeader, strconv.Itoa(total))
		if next {
			w.Header().Set(service.NextCursorHeader, base64.RawURLEncoding.EncodeToString([]byte(last)))
		}
		out := body.Bytes()
		if tamper != nil {
			out = tamper(w.Header(), out)
		}
		w.Write(out) //nolint:errcheck
	}
}

func TestRouterDatasetFailsClosed(t *testing.T) {
	good := ndjsonPage(1, 3, 9, true, nil)
	cut := func(n int) func(http.Header, []byte) []byte {
		return func(_ http.Header, b []byte) []byte { return b[:len(b)-n] }
	}
	cases := map[string]http.HandlerFunc{
		"dies mid-stream": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("ETag", `W/"mood-ds-1.0"`)
			w.Header().Set("Content-Type", service.NDJSONContentType)
			w.Header().Set(service.TotalUsersHeader, "9")
			fmt.Fprint(w, `{"user":"pub-000001","records":[{"lat":45.5,"lon":4.75,"ts":1000}]}`+"\n"+`{"user":"pub-0000`)
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		},
		"last line lacks its newline": ndjsonPage(1, 3, 9, true, cut(1)),
		"cut mid-line":                ndjsonPage(1, 3, 9, true, cut(20)),
		"cut at a line boundary":      ndjsonPage(1, 3, 9, true, func(_ http.Header, b []byte) []byte { return b[:bytes.IndexByte(b, '\n')+1] }),
		"cursor names another line": ndjsonPage(1, 3, 9, true, func(h http.Header, b []byte) []byte {
			h.Set(service.NextCursorHeader, base64.RawURLEncoding.EncodeToString([]byte("pub-000002")))
			return b
		}),
		"more lines than asked for":   ndjsonPage(1, 4, 9, false, nil),
		"more lines than match":       ndjsonPage(1, 3, 2, false, nil),
		"no total header":             ndjsonPage(1, 3, 9, true, func(h http.Header, b []byte) []byte { h.Del(service.TotalUsersHeader); return b }),
		"json where ndjson was asked": ndjsonPage(1, 3, 9, true, func(h http.Header, b []byte) []byte { h.Set("Content-Type", "application/json"); return b }),
		// A line is checked when the merge reaches it, so these lead the page.
		"blank line": ndjsonPage(1, 2, 9, false, func(_ http.Header, b []byte) []byte { return append([]byte("\n"), b...) }),
		"line without the frame": ndjsonPage(1, 2, 9, false, func(_ http.Header, b []byte) []byte {
			return append([]byte(`{"records":[],"user":"pub-000000"}`+"\n"), b...)
		}),
		"frame cut before the records": ndjsonPage(1, 2, 9, false, func(_ http.Header, b []byte) []byte {
			return append([]byte(`{"user":"pub-000000"]}`+"\n"), b...)
		}),
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			scriptedRouter(t, good, bad, good).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v2/dataset?limit=3", nil))
			assertProblem(t, rec.Result(), http.StatusServiceUnavailable, service.CodeRouting)
		})
	}

	// The same three nodes, unbroken, do answer: the cases above fail for
	// what was broken, not for the script.
	rec := httptest.NewRecorder()
	scriptedRouter(t, good, good, good).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v2/dataset?limit=3", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("unbroken scripted nodes: %d %s", rec.Code, rec.Body)
	}
}

// TestRouterRefusesOversizeNodeBody: a node body over the cap is refused
// on every gathered route, where the old LimitReader cut it to the cap
// and handed the stump on.
func TestRouterRefusesOversizeNodeBody(t *testing.T) {
	page := ndjsonPage(1, 3, 9, true, nil)
	stats := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"uploads":1,"pad":%q}`, strings.Repeat("x", 400))
	}
	node := func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v2/stats" {
			stats(w, r)
			return
		}
		page(w, r)
	}
	rt := scriptedRouter(t, node, node, node)
	for _, path := range []string{"/v2/dataset?limit=3", "/v2/stats"} {
		rt.bodyCap = maxNodeBody
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s under the cap: %d %s", path, rec.Code, rec.Body)
		}
		// Below the smallest node answer on either route.
		rt.bodyCap = 200
		rec = httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		assertProblem(t, rec.Result(), http.StatusServiceUnavailable, service.CodeRouting)
	}
}

// ---------------------------------------------------------------------------
// The splice in isolation.

// benchNodeResults are three nodes' NDJSON pages of the benchmark's
// shape (200-trace pages of traces of 50 records each, colliding
// pub-NNNNNN sequences) as fetchOne gathers them — each node's share of
// the page, nodeShare(200, 3) lines — plus the same pages in the JSON
// dialect.
func benchNodeResults(tb testing.TB) (results []fanResult, jsonPages [][]byte, size int64) {
	share := nodeShare(200, 3)
	for n := 0; n < 3; n++ {
		page := service.DatasetPage{Name: service.PublishedDatasetName, TotalUsers: 1700}
		var ndjson bytes.Buffer
		enc := json.NewEncoder(&ndjson)
		for i := 0; i < share; i++ {
			recs := make([]trace.Record, 50)
			for j := range recs {
				recs[j] = trace.Record{
					Lat: 45.7 + float64(n*10000+i*50+j)*1.37e-5,
					Lon: 4.8 - float64(n*10000+i*50+j)*2.11e-5,
					TS:  int64(1700000000 + j*60),
				}
			}
			tr := trace.Trace{User: fmt.Sprintf("pub-%06d", 1+i+n*3), Records: recs}
			page.Traces = append(page.Traces, tr)
			if err := enc.Encode(tr); err != nil {
				tb.Fatal(err)
			}
		}
		page.NextCursor = base64.RawURLEncoding.EncodeToString([]byte(page.Traces[share-1].User))
		raw, err := json.Marshal(page)
		if err != nil {
			tb.Fatal(err)
		}
		jsonPages = append(jsonPages, raw)
		size += int64(ndjson.Len())
		results = append(results, fanResult{
			node: Node{ID: fmt.Sprintf("n%02d", n)},
			header: http.Header{
				"Content-Type":                  {service.NDJSONContentType},
				service.TotalUsersHeader:        {"1700"},
				service.NextCursorHeader:        {page.NextCursor},
				http.CanonicalHeaderKey("ETag"): {`W/"mood-ds-1.0"`},
			},
			body: &ndjson,
		})
	}
	return results, jsonPages, size
}

// BenchmarkRouterDatasetMerge merges three nodes' shares into one
// 200-trace page (the router's share of a read-dataset-cluster op): the
// splice, and for the record the decode-merge-encode path it replaced.
func BenchmarkRouterDatasetMerge(b *testing.B) {
	results, jsonPages, size := benchNodeResults(b)
	b.Run("splice", func(b *testing.B) {
		var out bytes.Buffer
		share := nodeShare(200, 3)
		b.SetBytes(size)
		b.ReportAllocs()
		for b.Loop() {
			out.Reset()
			if err := spliceDatasetPage(&out, results, share, 200); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oracle", func(b *testing.B) {
		var out bytes.Buffer
		b.SetBytes(size)
		b.ReportAllocs()
		for b.Loop() {
			pages := make([]service.DatasetPage, len(jsonPages))
			for i, raw := range jsonPages {
				if err := json.Unmarshal(raw, &pages[i]); err != nil {
					b.Fatal(err)
				}
			}
			out.Reset()
			if err := json.NewEncoder(&out).Encode(oracleMerge(pages, 200)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestBenchShapeSplicesLikeOracle keeps the benchmark honest: on its own
// inputs the two paths it times produce the same page.
func TestBenchShapeSplicesLikeOracle(t *testing.T) {
	results, jsonPages, _ := benchNodeResults(t)
	var got, want bytes.Buffer
	if err := spliceDatasetPage(&got, results, nodeShare(200, 3), 200); err != nil {
		t.Fatal(err)
	}
	pages := make([]service.DatasetPage, len(jsonPages))
	for i, raw := range jsonPages {
		if err := json.Unmarshal(raw, &pages[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := json.NewEncoder(&want).Encode(oracleMerge(pages, 200)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("splice and oracle disagree on the benchmark's pages")
	}
}
