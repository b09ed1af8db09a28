package service

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"mood/internal/trace"
	"mood/internal/traceio"
)

// GET /v2/dataset: the published dataset as a paginated resource. It
// pages through a version-cached assembly with an opaque cursor,
// filters by published pseudonym and time range, negotiates JSON / CSV
// / NDJSON via Accept, and revalidates with an ETag derived from the
// dataset version (fragment audit sequence + quarantine generation) so
// polling consumers pay a 304, not a copy of the corpus.

// NextCursorHeader and TotalUsersHeader carry the envelope's
// next_cursor and total_users on non-JSON formats (CSV and NDJSON bodies
// have no envelope to put them in). The cluster router reads both off
// the nodes' NDJSON pages.
const (
	NextCursorHeader = "X-Mood-Next-Cursor"
	TotalUsersHeader = "X-Mood-Total-Users"
)

// PublishedDatasetName is the name every dataset page carries.
const PublishedDatasetName = "published"

// Page limits of GET /v2/dataset and GET /v2/jobs: the page size when a
// request gives no limit, and the largest it may ask for. Exported so
// the cluster router pages by the same numbers.
const (
	DefaultPageLimit = 100
	MaxPageLimit     = 1000
)

// DatasetPage is the JSON envelope of one GET /v2/dataset page.
type DatasetPage struct {
	Name   string        `json:"name"`
	Traces []trace.Trace `json:"traces"`
	// NextCursor, when non-empty, fetches the next page; its absence
	// marks the final page. The cursor is opaque to clients.
	NextCursor string `json:"next_cursor,omitempty"`
	// TotalUsers is the number of traces matching the filters across
	// all pages.
	TotalUsers int `json:"total_users"`
}

// dsCacheEntry caches one assembled dataset keyed by its version, and
// the JSON line of every trace a page has needed (lines[i] for
// ds.Traces[i]), so requests against an unchanged corpus share one
// assembly and encode each published trace at most once.
type dsCacheEntry struct {
	version string
	ds      trace.Dataset
	lines   []atomic.Pointer[[]byte]
}

// datasetVersion identifies the published-dataset state, and with it
// the cached assembly and lines: the fragment audit sequence advances
// on every commit (and on restore, which reissues it), the quarantine
// generation on every re-audit removal.
func (s *Server) datasetVersion() string {
	return strconv.FormatInt(s.fragSeq.Load(), 10) + "." + strconv.FormatInt(s.quarGen.Load(), 10)
}

// publishedDataset returns the current version's cache entry. The
// version is read before the snapshot, so a commit racing the assembly
// can only make the tag conservative (a revalidation misses and
// refetches) — never let a 304 or a cached line stand for missing
// data: equal versions imply identical state.
func (s *Server) publishedDataset() *dsCacheEntry {
	version := s.datasetVersion()
	if e := s.dsCache.Load(); e != nil && e.version == version {
		return e
	}
	ds := trace.NewDataset(PublishedDatasetName, s.publishedSnapshot())
	e := &dsCacheEntry{version: version, ds: ds, lines: make([]atomic.Pointer[[]byte], len(ds.Traces))}
	if s.datasetVersion() == version {
		// Nothing changed while assembling: the cache entry is exact.
		s.dsCache.Store(e)
	}
	return e
}

// appendPage writes one JSON or NDJSON page into out. When the page's
// traces are the entry's own (first >= 0: page.Traces[k] is
// e.ds.Traces[first+k]) each goes out as its cached line; traces a time
// window rewrote are encoded afresh.
func (e *dsCacheEntry) appendPage(out *bytes.Buffer, page DatasetPage, first int, ndjson bool) error {
	if !ndjson {
		out.Write(AppendPageHead(out.AvailableBuffer(), page.Name))
	}
	for k, t := range page.Traces {
		if k > 0 && !ndjson {
			out.WriteByte(',')
		}
		var b []byte
		var err error
		if first >= 0 {
			b, err = e.line(first+k, out.AvailableBuffer())
		} else {
			b, err = trace.AppendTraceJSON(out.AvailableBuffer(), t)
		}
		if err != nil {
			return err
		}
		out.Write(b)
		if ndjson {
			out.WriteByte('\n')
		}
	}
	if !ndjson {
		out.Write(AppendPageTail(out.AvailableBuffer(), page.NextCursor, page.TotalUsers))
	}
	return nil
}

// line returns the JSON line of e.ds.Traces[i]. The first page that
// needs it encodes it into spare and keeps a copy, the one allocation
// per trace and version; racing fillers store identical bytes.
func (e *dsCacheEntry) line(i int, spare []byte) ([]byte, error) {
	if kept := e.lines[i].Load(); kept != nil {
		return *kept, nil
	}
	b, err := trace.AppendTraceJSON(spare, e.ds.Traces[i])
	if err != nil {
		return nil, err
	}
	kept := bytes.Clone(b)
	e.lines[i].Store(&kept)
	return kept, nil
}

// datasetQuery is the parsed query surface of GET /v2/dataset.
type datasetQuery struct {
	cursor   string // decoded: the last user of the previous page
	limit    int
	user     string
	from, to int64 // half-open [from, to); 0 = unbounded
	format   string
}

// Dataset formats, resolved from Accept: each is its pages' Content-Type.
const (
	formatJSON   = "application/json"
	formatCSV    = "text/csv"
	formatNDJSON = NDJSONContentType
)

// handleDataset serves GET /v2/dataset.
func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	q, errCode, errDetail := parseDatasetQuery(r)
	if errCode != "" {
		writeError(w, http.StatusBadRequest, errCode, errDetail)
		return
	}
	if q.format == "" {
		writeError(w, http.StatusNotAcceptable, CodeNotAcceptable,
			"no supported media type in Accept (offer application/json, text/csv or "+NDJSONContentType+")")
		return
	}

	e := s.publishedDataset()
	etag := `W/"mood-ds-` + e.version + `"` // weak: equal versions, equal pages
	w.Header().Set("ETag", etag)
	w.Header().Set("Vary", "Accept")
	if ETagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	page, first := paginateDataset(e.ds, q)
	if q.format != formatJSON {
		if page.NextCursor != "" {
			w.Header().Set(NextCursorHeader, page.NextCursor)
		}
		w.Header().Set(TotalUsersHeader, strconv.Itoa(page.TotalUsers))
	}
	if q.format == formatCSV {
		w.Header().Set("Content-Type", q.format)
		traceio.WriteCSV(w, trace.Dataset{Name: page.Name, Traces: page.Traces}) //nolint:errcheck // headers are gone
		return
	}
	// JSON and NDJSON pages go out whole, in one write with a length.
	body := GetBuffer()
	defer PutBuffer(body)
	if err := e.appendPage(body, page, first, q.format == formatNDJSON); err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "unencodable published trace: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", q.format)
	w.Header().Set("Content-Length", strconv.Itoa(body.Len()))
	w.Write(body.Bytes()) //nolint:errcheck // headers are gone
}

// AppendPageHead and AppendPageTail write a DatasetPage's envelope around
// its traces, byte for byte as json.Encoder writes it (a trailing
// newline included): the traces go between them, comma-separated.
func AppendPageHead(b []byte, name string) []byte {
	b = append(b, `{"name":`...)
	b = trace.AppendJSONString(b, name)
	return append(b, `,"traces":[`...)
}

// AppendPageTail closes what AppendPageHead opened.
func AppendPageTail(b []byte, nextCursor string, totalUsers int) []byte {
	b = append(b, ']')
	if nextCursor != "" {
		b = append(b, `,"next_cursor":`...)
		b = trace.AppendJSONString(b, nextCursor)
	}
	b = append(b, `,"total_users":`...)
	b = strconv.AppendInt(b, int64(totalUsers), 10)
	return append(b, "}\n"...)
}

// parseDatasetQuery validates the pagination and filter parameters.
func parseDatasetQuery(r *http.Request) (q datasetQuery, errCode Code, errDetail string) {
	vals := r.URL.Query()
	q.limit = DefaultPageLimit
	if raw := vals.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 || n > MaxPageLimit {
			return q, CodeBadRequest, fmt.Sprintf("limit must be an integer in 1..%d", MaxPageLimit)
		}
		q.limit = n
	}
	if raw := vals.Get("cursor"); raw != "" {
		dec, err := base64.RawURLEncoding.DecodeString(raw)
		if err != nil {
			return q, CodeBadCursor, "malformed cursor (use the next_cursor of the previous page verbatim)"
		}
		q.cursor = string(dec)
	}
	q.user = vals.Get("user")
	var bounds [2]int64 // from, then to: the first malformed one is reported
	for i, name := range [...]string{"from", "to"} {
		if raw := vals.Get(name); raw != "" {
			ts, err := strconv.ParseInt(raw, 10, 64)
			if err != nil {
				return q, CodeBadRequest, name + " must be a unix timestamp in seconds"
			}
			bounds[i] = ts
		}
	}
	q.from, q.to = bounds[0], bounds[1]
	if q.from != 0 && q.to != 0 && q.to <= q.from {
		return q, CodeBadRequest, "empty time range: to must be greater than from"
	}
	q.format = negotiateDatasetFormat(r.Header.Get("Accept"))
	return q, "", ""
}

// negotiateDatasetFormat picks the response format from the Accept
// header. Absent or wildcard Accept selects JSON; an Accept that names
// no supported type returns "" (406). The first acceptable supported
// type in header order wins: quality factors above 0 count only as
// presence, which is what every real consumer of this endpoint sends.
func negotiateDatasetFormat(accept string) string {
	if accept == "" {
		return formatJSON
	}
	for part := range strings.SplitSeq(accept, ",") {
		switch MediaRange(part) {
		case "application/json", "application/*", "*/*":
			return formatJSON
		case "text/csv", "text/*":
			return formatCSV
		case NDJSONContentType, "application/jsonl", "application/ndjson":
			return formatNDJSON
		}
	}
	return ""
}

// MediaRange reads one comma-separated part of an Accept header: its
// media type, lower-cased, or "" when its quality factor is 0, which
// RFC 9110 §12.5.1 defines as "not acceptable". The cluster router
// negotiates by the same reading.
func MediaRange(part string) string {
	mt, params, _ := strings.Cut(part, ";")
	for param := range strings.SplitSeq(params, ";") {
		name, value, _ := strings.Cut(param, "=")
		if q, err := strconv.ParseFloat(strings.TrimSpace(value), 64); err == nil && q == 0 && strings.EqualFold(strings.TrimSpace(name), "q") {
			return ""
		}
	}
	return strings.ToLower(strings.TrimSpace(mt))
}

// ETagMatches implements If-None-Match per RFC 9110 §13.1.2: weak
// comparison of etag against each validator the header lists, with "*"
// matching any current representation. The cluster router answers its
// own 304s by the same rule.
func ETagMatches(header, etag string) bool {
	opaque := strings.TrimPrefix(etag, "W/")
	for cand := range strings.SplitSeq(header, ",") {
		if cand = strings.TrimSpace(cand); cand == "*" || strings.TrimPrefix(cand, "W/") == opaque {
			return true
		}
	}
	return false
}

// paginateDataset applies the filters, locates the cursor and cuts one
// page. Traces are sorted by published pseudonym (NewDataset's
// invariant), so the cursor is simply the last pseudonym of the
// previous page and a page boundary can never skip or repeat a trace —
// even across dataset versions, where re-assembly preserves the sort.
// Unless a time window rewrote them, the page's traces are the run of
// ds.Traces from position first; otherwise first is -1.
func paginateDataset(ds trace.Dataset, q datasetQuery) (page DatasetPage, first int) {
	traces := ds.Traces
	if q.user != "" { // NewDataset holds one trace per pseudonym
		i, found := slices.BinarySearchFunc(traces, q.user, func(t trace.Trace, u string) int { return strings.Compare(t.User, u) })
		if first, traces = i, traces[i:i]; found {
			traces = ds.Traces[i : i+1]
		}
	}
	if q.from != 0 || q.to != 0 {
		to := q.to
		if to == 0 {
			to = math.MaxInt64
		}
		windowed := make([]trace.Trace, 0, len(traces))
		for _, t := range traces {
			if t = t.Window(q.from, to); !t.Empty() {
				windowed = append(windowed, t)
			}
		}
		traces, first = windowed, -1
	}

	page = DatasetPage{Name: ds.Name, TotalUsers: len(traces)}
	start := 0
	if q.cursor != "" {
		start = sort.Search(len(traces), func(i int) bool { return traces[i].User > q.cursor })
	}
	end := min(start+q.limit, len(traces))
	page.Traces = traces[start:end]
	if end < len(traces) {
		page.NextCursor = base64.RawURLEncoding.EncodeToString([]byte(traces[end-1].User))
	}
	if first >= 0 {
		first += start
	}
	return page, first
}
