package service

import (
	"encoding/base64"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

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

// dsCacheEntry caches one assembled dataset keyed by its version, so
// page requests against an unchanged corpus share a single assembly
// instead of re-merging every fragment per request.
type dsCacheEntry struct {
	version string
	ds      trace.Dataset
}

// datasetVersion identifies the published-dataset state: the fragment
// audit sequence advances on every commit (and on restore, which
// reissues it), the quarantine generation on every re-audit removal.
func (s *Server) datasetVersion() string {
	return strconv.FormatInt(s.fragSeq.Load(), 10) + "." + strconv.FormatInt(s.quarGen.Load(), 10)
}

// datasetETag is the weak validator served on dataset responses.
func (s *Server) datasetETag(version string) string {
	return `W/"mood-ds-` + version + `"`
}

// publishedDataset returns the assembled published dataset and the
// version its ETag derives from. The version is read before the
// snapshot, so a commit racing the assembly can only make the tag
// conservative (a revalidation misses and refetches) — never let a 304
// stand for missing data: equal versions imply identical state.
func (s *Server) publishedDataset() (trace.Dataset, string) {
	version := s.datasetVersion()
	if e := s.dsCache.Load(); e != nil && e.version == version {
		return e.ds, version
	}
	ds := trace.NewDataset(PublishedDatasetName, s.publishedSnapshot())
	if s.datasetVersion() == version {
		// Nothing changed while assembling: the cache entry is exact.
		s.dsCache.Store(&dsCacheEntry{version: version, ds: ds})
	}
	return ds, version
}

// datasetQuery is the parsed query surface of GET /v2/dataset.
type datasetQuery struct {
	cursor   string // decoded: the last user of the previous page
	limit    int
	user     string
	from, to int64 // half-open [from, to); 0 = unbounded
	format   string
}

// Dataset formats, resolved from the Accept header.
const (
	formatJSON   = "json"
	formatCSV    = "csv"
	formatNDJSON = "ndjson"
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

	ds, version := s.publishedDataset()
	etag := s.datasetETag(version)
	w.Header().Set("ETag", etag)
	w.Header().Set("Vary", "Accept")
	if ETagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	page := paginateDataset(ds, q)
	if q.format != formatJSON {
		if page.NextCursor != "" {
			w.Header().Set(NextCursorHeader, page.NextCursor)
		}
		w.Header().Set(TotalUsersHeader, strconv.Itoa(page.TotalUsers))
	}
	switch q.format {
	case formatCSV:
		w.Header().Set("Content-Type", "text/csv")
		traceio.WriteCSV(w, trace.Dataset{Name: page.Name, Traces: page.Traces}) //nolint:errcheck // headers are gone
	case formatNDJSON:
		w.Header().Set("Content-Type", NDJSONContentType)
		traceio.WriteJSONL(w, trace.Dataset{Name: page.Name, Traces: page.Traces}) //nolint:errcheck
	default:
		writePageJSON(w, page)
	}
}

// writePageJSON writes the page exactly as json.Encoder writes a
// DatasetPage, through the envelope the cluster router's splice shares
// and one line buffer reused for every trace.
func writePageJSON(w http.ResponseWriter, page DatasetPage) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	b := AppendPageHead(nil, page.Name)
	for i, t := range page.Traces {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = trace.AppendTraceJSON(b, t); err != nil {
			return // published records are finite; the cut body fails to decode
		}
		w.Write(b) //nolint:errcheck // headers are gone
		b = b[:0]
	}
	w.Write(AppendPageTail(b, page.NextCursor, page.TotalUsers)) //nolint:errcheck
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
func parseDatasetQuery(r *http.Request) (q datasetQuery, errCode, errDetail string) {
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
	for name, dst := range map[string]*int64{"from": &q.from, "to": &q.to} {
		if raw := vals.Get(name); raw != "" {
			ts, err := strconv.ParseInt(raw, 10, 64)
			if err != nil {
				return q, CodeBadRequest, name + " must be a unix timestamp in seconds"
			}
			*dst = ts
		}
	}
	if q.from != 0 && q.to != 0 && q.to <= q.from {
		return q, CodeBadRequest, "empty time range: to must be greater than from"
	}
	q.format = negotiateDatasetFormat(r.Header.Get("Accept"))
	return q, "", ""
}

// negotiateDatasetFormat picks the response format from the Accept
// header. Absent or wildcard Accept selects JSON; an Accept that names
// none of the supported types returns "" (406). Quality factors are
// honoured only as presence — the first supported type in header order
// wins, which is what every real consumer of this endpoint sends.
func negotiateDatasetFormat(accept string) string {
	if accept == "" {
		return formatJSON
	}
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		switch strings.ToLower(mt) {
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

// ETagMatches implements If-None-Match per RFC 9110 §13.1.2: weak
// comparison of etag against each validator the header lists, with "*"
// matching any current representation. The cluster router answers its
// own 304s by the same rule.
func ETagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	opaque := strings.TrimPrefix(etag, "W/")
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" {
			return true
		}
		if strings.TrimPrefix(cand, "W/") == opaque {
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
func paginateDataset(ds trace.Dataset, q datasetQuery) DatasetPage {
	traces := ds.Traces
	if q.user != "" || q.from != 0 || q.to != 0 {
		filtered := make([]trace.Trace, 0, len(traces))
		from, to := q.from, q.to
		if to == 0 {
			to = math.MaxInt64
		}
		for _, t := range traces {
			if q.user != "" && t.User != q.user {
				continue
			}
			if q.from != 0 || q.to != 0 {
				t = t.Window(from, to)
				if t.Empty() {
					continue
				}
			}
			filtered = append(filtered, t)
		}
		traces = filtered
	}

	page := DatasetPage{Name: ds.Name, TotalUsers: len(traces)}
	start := 0
	if q.cursor != "" {
		start = sort.Search(len(traces), func(i int) bool { return traces[i].User > q.cursor })
	}
	end := start + q.limit
	if end > len(traces) {
		end = len(traces)
	}
	page.Traces = traces[start:end]
	if page.Traces == nil {
		page.Traces = []trace.Trace{}
	}
	if end < len(traces) {
		page.NextCursor = base64.RawURLEncoding.EncodeToString([]byte(traces[end-1].User))
	}
	return page
}
