package cluster

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"mood/internal/service"
	"mood/internal/trace"
)

// GET /v2/dataset through the router: a scatter of the page request —
// same cursor, same filters — to every member and a k-way merge of the
// returned pages by published pseudonym, as a mediator splits a query
// across its sources and merges what they return. A node's page is its
// first matching traces after the cursor, so a merge that has a line
// from every node with more to give emits the global page, and the
// cursor contract (next_cursor = last emitted pseudonym, opaque base64)
// holds bit for bit.
//
// Each node is asked for its share of the page, not the whole of it
// (nodeShare: limit/N plus two standard deviations of a uniform key
// split and one tie per other node, 86 of 200 on three nodes). When a
// node's share runs out while it has more and the page is not full, the
// page is rebuilt from one scatter at the full limit, which cannot run
// short: on hash-keyed pseudonyms that takes a node far ahead of the
// others, which a uniform key split all but rules out.
//
// The bytes of a trace cross this tier unparsed. The router asks the
// nodes for the line-framed dialect (NDJSON: one trace line per trace,
// the envelope's cursor and total in headers), reads nothing of a line
// but the pseudonym (trace.LineKey, beside the encoder that writes the
// line), merges the lines as byte slices and writes the DatasetPage
// envelope around them with the functions the node's JSON page uses.
// Both match encoding/json byte for byte, so the page is what decoding
// the node pages and re-encoding the merge produced (the _test.go
// oracle).
//
// Nothing but the prefix being parsed, a short body would be forwarded
// where it used to fail to decode; so the merge fails closed on framing
// (openNodePage) and fetchOne on transport errors and the body cap.

func (rt *Router) handleDataset(w http.ResponseWriter, r *http.Request) {
	if !acceptsJSON(r.Header.Get("Accept")) {
		writeProblem(w, service.NewProblem(http.StatusNotAcceptable, service.CodeNotAcceptable,
			"the cluster router serves application/json only (CSV/NDJSON are single-node formats)"))
		return
	}
	query := r.URL.Query()
	limit := service.DefaultPageLimit
	if raw := query.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 || n > service.MaxPageLimit {
			writeProblem(w, service.NewProblem(http.StatusBadRequest, service.CodeBadRequest,
				fmt.Sprintf("limit must be an integer in 1..%d", service.MaxPageLimit)))
			return
		}
		limit = n
	}
	ring, ok := rt.wholeCluster(w)
	if !ok {
		return
	}
	out := service.GetBuffer()
	defer service.PutBuffer(out)
	for _, k := range []int{nodeShare(limit, len(ring.Nodes())), limit} {
		results, etag, ok := rt.gatherDataset(w, r, ring, datasetPath(query, k))
		if !ok {
			return
		}
		out.Reset()
		err := spliceDatasetPage(out, results, k, limit)
		freeBodies(results)
		if errors.Is(err, errShareShort) && k < limit {
			continue
		}
		if err != nil {
			fmt.Fprintf(rt.log, "cluster: dataset merge refused: %v\n", err)
			routingUnavailable(w, err.Error())
			return
		}
		w.Header().Set("ETag", etag)
		w.Header().Set("Vary", "Accept")
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(out.Len()))
		w.WriteHeader(http.StatusOK)
		w.Write(out.Bytes()) //nolint:errcheck // headers are gone
		return
	}
}

// nodeShare is how many lines a page of limit asks of each of n nodes:
// ⌈limit/n⌉, plus ⌈2·√(limit/n)⌉ for a uniform key split's spread, plus
// one tie per other node — never more than the limit itself, which it
// is for every limit up to 7.
func nodeShare(limit, n int) int {
	share := (limit + n - 1) / n
	spread := 0
	for spread*spread*n < 4*limit {
		spread++
	}
	return min(limit, share+spread+n-1)
}

// datasetPath is the node request for n lines of the client's query.
func datasetPath(query url.Values, n int) string {
	q := maps.Clone(query)
	q.Set("limit", strconv.Itoa(n))
	return "/v2/dataset?" + q.Encode()
}

// gatherDataset scatters one page request and returns every node's
// page and the cluster ETag they make, or answers the client itself and
// reports false: a 304 when its validator still holds, the refusal of
// an unanswered scatter otherwise.
func (rt *Router) gatherDataset(w http.ResponseWriter, r *http.Request, ring *Ring, path string) ([]fanResult, string, bool) {
	// Each node revalidates against its own part of the client's
	// validator, so a polling consumer whose dataset has not moved costs
	// the cluster N empty 304s, not N pages built, shipped and dropped.
	ask := func(inm string) func(Node) http.Header {
		return func(n Node) http.Header {
			h := http.Header{"Accept": {service.NDJSONContentType}}
			if v := nodeValidators(inm, n.ID); v != "" {
				h.Set("If-None-Match", v)
			}
			return h
		}
	}
	inm := r.Header.Get("If-None-Match")
	results := rt.fanout(r, ring.Nodes(), ring.Epoch(), http.MethodGet, path, ask(inm))
	if !allAnswered(w, results, http.StatusOK, http.StatusNotModified) {
		freeBodies(results)
		return nil, "", false
	}
	etag := clusterETag(results)
	if service.ETagMatches(inm, etag) {
		freeBodies(results)
		w.Header().Set("ETag", etag)
		w.Header().Set("Vary", "Accept")
		w.WriteHeader(http.StatusNotModified)
		return nil, "", false
	}
	// Some node moved on (or the validator was not ours): the nodes that
	// answered 304 still owe their page. Only they are asked again.
	var stale []Node
	for _, fr := range results {
		if fr.status == http.StatusNotModified {
			stale = append(stale, fr.node)
		}
	}
	if len(stale) == 0 {
		return results, etag, true
	}
	again := rt.fanout(r, stale, ring.Epoch(), http.MethodGet, path, ask(""))
	for i, j := 0, 0; i < len(results); i++ {
		if results[i].status == http.StatusNotModified {
			service.PutBuffer(results[i].body)
			results[i], j = again[j], j+1
		}
	}
	if !allAnswered(w, results, http.StatusOK) {
		freeBodies(results)
		return nil, "", false
	}
	return results, clusterETag(results), true
}

// clusterETag concatenates the per-node validators in node-ID order: it
// changes iff any node's dataset version changes.
func clusterETag(results []fanResult) string {
	parts := make([]string, len(results))
	for i, fr := range results {
		parts[i] = fr.node.ID + ":" + strings.Trim(strings.TrimPrefix(fr.header.Get("ETag"), "W/"), `"`)
	}
	return `W/"mood-cluster-` + strings.Join(parts, "+") + `"`
}

// nodeValidators picks node id's own validators out of a client's
// If-None-Match: the `<id>:<validator>` part of every cluster tag listed,
// re-quoted as the node serves it ("*" passes through). A tag that is
// not one of ours yields nothing and the node is asked unconditionally;
// a wrong pick costs a second request, never a wrong answer, because the
// router's own 304 is decided on the tag recombined from the nodes'
// answers.
func nodeValidators(inm, id string) string {
	var out []string
	for _, cand := range strings.Split(inm, ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" {
			return "*"
		}
		tag, ok := strings.CutPrefix(strings.TrimPrefix(cand, "W/"), `"mood-cluster-`)
		if !ok {
			continue
		}
		for _, part := range strings.Split(strings.TrimSuffix(tag, `"`), "+") {
			if v, ok := strings.CutPrefix(part, id+":"); ok {
				out = append(out, `W/"`+v+`"`)
			}
		}
	}
	return strings.Join(out, ", ")
}

// ---------------------------------------------------------------------------
// The splice.

// nodePage is one node's NDJSON page under the merge.
type nodePage struct {
	rest []byte // the lines after the head, each with its '\n'
	line []byte // the head line without its '\n'; nil once drained
	key  []byte // the head's pseudonym
	more bool   // the node holds further pages
}

var newline = []byte{'\n'}

// framingError refuses a node page whose bytes are not the page its
// headers describe.
func framingError(n Node) error {
	return fmt.Errorf("node %s answered an undecodable dataset page", n.ID)
}

// openNodePage checks one gathered page's framing against its headers
// and the limit it was asked for, and positions the merge on its first
// line. A page is refused when it is not NDJSON, when it ends mid-line,
// when it holds more lines than were asked for or than the node says
// match, or when the next cursor does not name its limit-th line — each
// the signature of a body cut short or padded on the way.
func openNodePage(fr fanResult, limit int) (p nodePage, totalUsers int, ok bool) {
	body := fr.body.Bytes()
	totalUsers, err := strconv.Atoi(fr.header.Get(service.TotalUsersHeader))
	if err != nil || totalUsers < 0 ||
		!strings.HasPrefix(fr.header.Get("Content-Type"), service.NDJSONContentType) ||
		(len(body) > 0 && body[len(body)-1] != '\n') {
		return p, 0, false
	}
	lines := bytes.Count(body, newline)
	if lines > limit || lines > totalUsers {
		return p, 0, false
	}
	if cursor := fr.header.Get(service.NextCursorHeader); cursor != "" {
		last := bytes.TrimSuffix(body, newline)
		last = last[bytes.LastIndexByte(last, '\n')+1:]
		key, ok := trace.LineKey(last)
		if !ok || lines != limit || base64.RawURLEncoding.EncodeToString(key) != cursor {
			return p, 0, false
		}
		p.more = true
	}
	p.rest = body
	return p, totalUsers, p.advance()
}

// advance moves the head to the next line; false means that line does
// not have a trace's frame.
func (p *nodePage) advance() bool {
	if len(p.rest) == 0 {
		p.line, p.key = nil, nil
		return true
	}
	nl := bytes.IndexByte(p.rest, '\n') // present: openNodePage saw the final one
	p.line, p.rest = p.rest[:nl], p.rest[nl+1:]
	var ok bool
	p.key, ok = trace.LineKey(p.line)
	return ok
}

// splice is the page being written: the envelope around the lines
// emitted so far.
type splice struct {
	out     *bytes.Buffer
	emitted int
	last    []byte // the pseudonym emitted last
}

// emit appends p's head line to the page and moves p on.
func (s *splice) emit(p *nodePage) bool {
	if s.emitted > 0 {
		s.out.WriteByte(',')
	}
	s.out.Write(p.line)
	s.emitted++
	s.last = p.key
	return p.advance()
}

// errShareShort reports a node page that ran out while the node had
// more and the merged page was not full.
var errShareShort = errors.New("a node's share of the page ran short")

// spliceDatasetPage k-way merges the gathered node pages, each asked
// for share lines, into out as one DatasetPage body, capped at limit.
// It refuses with errShareShort when a node's page runs out while the
// node has more and the page is not full: what sorts next may be that
// node's.
func spliceDatasetPage(out *bytes.Buffer, results []fanResult, share, limit int) error {
	pages := make([]nodePage, len(results))
	totalUsers := 0
	for i, fr := range results {
		p, total, ok := openNodePage(fr, share)
		if !ok {
			return framingError(fr.node)
		}
		pages[i] = p
		totalUsers += total
	}

	out.Write(service.AppendPageHead(out.AvailableBuffer(), service.PublishedDatasetName))
	s := splice{out: out}
	for s.emitted < limit {
		best := -1
		for i := range pages {
			if pages[i].line == nil {
				continue
			}
			if best < 0 || bytes.Compare(pages[i].key, pages[best].key) < 0 {
				best = i
			}
		}
		if best < 0 {
			break
		}
		p := &pages[best]
		if !s.emit(p) {
			return framingError(results[best].node)
		}
		if p.line == nil && p.more && s.emitted < limit {
			return errShareShort
		}
	}
	// Never split a cross-node tie across the page boundary: each node
	// numbers its own pub-NNNNNN pseudonym sequence, so distinct users
	// on different nodes routinely share a pseudonym, and the cursor
	// means "resume strictly after this pseudonym" — cutting the page
	// between tied entries would silently skip the unsent ones on
	// resume. Within a node pseudonyms are unique and sorted, so every
	// tied entry sits at a current head (a node whose run ended on the
	// last line emitted holds nothing equal to it); draining them
	// overflows the requested limit by at most one entry per remaining
	// node.
	more := false
	for i := range pages {
		p := &pages[i]
		if s.emitted > 0 && p.line != nil && bytes.Equal(p.key, s.last) && !s.emit(p) {
			return framingError(results[i].node)
		}
		if p.line != nil || p.more {
			more = true
		}
	}
	cursor := ""
	if more && s.emitted > 0 {
		cursor = base64.RawURLEncoding.EncodeToString(s.last)
	}
	out.Write(service.AppendPageTail(out.AvailableBuffer(), cursor, totalUsers))
	return nil
}

// acceptsJSON mirrors the nodes' negotiation for the one format the
// router can merge: any acceptable range that admits JSON.
func acceptsJSON(accept string) bool {
	if accept == "" {
		return true
	}
	for part := range strings.SplitSeq(accept, ",") {
		switch service.MediaRange(part) {
		case "application/json", "application/*", "*/*":
			return true
		}
	}
	return false
}
