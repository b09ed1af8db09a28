package service

import (
	"context"
	"net/http"
	"sort"
	"strings"
)

// The declarative route table. One row per (method, pattern) drives
// everything that used to be scattered across hand-rolled prefix
// checks: the ServeMux registration (Go 1.22 method patterns), the
// per-route middleware exemptions (auth, rate limit, timeout), the
// rate-limiter key shape, the metrics label and the served OpenAPI
// document. Router and spec are generated from the same rows, so they
// cannot drift; a uniform 405 + Allow fallback is derived per path from
// the methods the table declares, and every other unmatched request is
// a 404 problem.

// route is one row of the table.
type route struct {
	// method is the HTTP method ("GET" implies HEAD via the ServeMux).
	method string
	// pattern is the Go 1.22 ServeMux path pattern, without the method
	// ("/v2/jobs/{id}"); it is also the route's metrics label.
	pattern string
	// handler serves matched requests.
	handler http.HandlerFunc
	// noAuth / noLimit / noTimeout exempt the route from the bearer
	// auth, per-user rate limit and request timeout layers.
	noAuth    bool
	noLimit   bool
	noTimeout bool
	// userKeyed routes are rate-limited per declared participant
	// (X-Mood-User + client IP) instead of per client IP.
	userKeyed bool
	// doc is the OpenAPI operation metadata; nil rows (the per-path 405
	// fallbacks are synthesized, not declared) never reach the spec.
	doc *opDoc
}

// routes returns the full table. Handlers are bound to s, so the table
// is assembled per server; everything else is static.
func (s *Server) routes() []*route {
	return []*route{
		{method: "GET", pattern: "/v2/openapi.json", handler: s.handleOpenAPI,
			noAuth: true, noLimit: true, doc: docOpenAPI},
		{method: "POST", pattern: "/v2/traces", handler: s.handleBatchUpload,
			userKeyed: true, noTimeout: true, doc: docTraces},
		{method: "GET", pattern: "/v2/dataset", handler: s.handleDataset,
			noTimeout: true, doc: docDataset},
		{method: "GET", pattern: "/v2/jobs", handler: s.handleJobsList,
			noLimit: true, doc: docJobsList},
		{method: "GET", pattern: "/v2/jobs/{id}", handler: s.handleJobGet,
			noLimit: true, doc: docJobGet},
		{method: "GET", pattern: "/v2/stats", handler: s.handleStats,
			doc: docStats},
		{method: "GET", pattern: "/v2/users/{id}", handler: s.handleUserGet,
			doc: docUserGet},
		{method: "GET", pattern: "/v2/metrics", handler: s.handleMetrics,
			noLimit: true, doc: docMetrics},
		{method: "POST", pattern: "/v2/admin/retrain", handler: s.handleRetrain,
			doc: docRetrain},
		{method: "GET", pattern: "/healthz", handler: handleHealthz,
			noAuth: true, noLimit: true, doc: docHealthz},
	}
}

// handleHealthz is the liveness probe. It names its media type itself:
// the timeout layer presets problem+json on the outer writer for its own
// 503 (see Timeout), and every handler's success overwrites it.
func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n")) //nolint:errcheck
}

// ---------------------------------------------------------------------------
// Router assembly.

// routeKey carries the matched *route through the request context so
// every middleware layer resolves its behaviour with a table lookup
// instead of a path-prefix check.
type routeKey struct{}

// routeOf returns the route the request matched, or nil (unknown path
// or redirect).
func routeOf(r *http.Request) *route {
	rt, _ := r.Context().Value(routeKey{}).(*route)
	return rt
}

// overrideKey carries a resolver-synthesized terminal handler (the
// uniform 405 or the 404) past the middleware chain: the terminal serves
// it instead of the mux, so the refusal still traverses metrics, auth
// and the rate limiter like any other request.
type overrideKey struct{}

// router is the assembled routing state: the ServeMux the chain
// terminates in and the pattern → route index the resolver consults.
type router struct {
	mux *http.ServeMux
	// byPattern maps every registered method-qualified ServeMux pattern
	// to its table row.
	byPattern map[string]*route
	// methods is the distinct method set the table uses, probed to
	// derive the Allow header on wrong-method requests.
	methods []string
}

// buildRouter registers the table on a fresh ServeMux.
func buildRouter(table []*route) *router {
	rt := &router{mux: http.NewServeMux(), byPattern: make(map[string]*route, len(table))}
	seen := map[string]bool{}
	for _, row := range table {
		key := row.method + " " + row.pattern
		rt.mux.Handle(key, row.handler)
		rt.byPattern[key] = row
		if !seen[row.method] {
			seen[row.method] = true
			rt.methods = append(rt.methods, row.method)
		}
	}
	sort.Strings(rt.methods)
	return rt
}

// resolve is the outermost middleware layer: it matches the request
// against the mux (without serving it) and stashes the route in the
// context for every layer below. A request no row matches is answered
// by the terminal: a path that exists under other methods with a
// synthesized 405 carrying an Allow header derived from the table, any
// other path with a 404 problem.
func (rr *router) resolve(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, pattern := rr.mux.Handler(r)
		if rt := rr.byPattern[pattern]; rt != nil {
			r = r.WithContext(context.WithValue(r.Context(), routeKey{}, rt))
		} else if pattern == "" {
			ctx := r.Context()
			rt, override := rr.methodNotAllowed(r)
			if rt != nil {
				ctx = context.WithValue(ctx, routeKey{}, rt)
			}
			r = r.WithContext(context.WithValue(ctx, overrideKey{}, override))
		}
		next.ServeHTTP(w, r)
	})
}

// terminal ends the chain: the resolver's synthesized handler when one
// is pending, the mux otherwise.
func (rr *router) terminal() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ov, ok := r.Context().Value(overrideKey{}).(http.Handler); ok {
			ov.ServeHTTP(w, r)
			return
		}
		rr.mux.ServeHTTP(w, r)
	})
}

// notFound answers a path no row declares under any method.
func notFound(w http.ResponseWriter, _ *http.Request) {
	writeError(w, http.StatusNotFound, CodeNotFound, "unknown resource")
}

// methodNotAllowed decides whether the unmatched request names an
// existing resource under a different method. It returns a pseudo-route
// inheriting the resource's exemptions (so a wrong-method probe cannot
// dodge auth or be throttled differently from the resource it names)
// plus the uniform 405 handler — or no route and the 404 handler for a
// genuinely unknown path.
func (rr *router) methodNotAllowed(r *http.Request) (*route, http.Handler) {
	allow, first := AllowedMethods(rr.mux, rr.methods, r, func(pattern string) bool { return rr.byPattern[pattern] != nil })
	if allow == "" {
		return nil, http.HandlerFunc(notFound)
	}
	c := rr.byPattern[first]
	pseudo := &route{pattern: c.pattern, noAuth: c.noAuth, noLimit: c.noLimit, noTimeout: c.noTimeout}
	return pseudo, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { WriteMethodNotAllowed(w, r, allow) })
}

// AllowedMethods is the wrong-method probe the node and the cluster
// router share: it asks mux how it would route r under each of methods
// but r's own and returns the Allow header value — the methods under
// which r's path matches a pattern known accepts, sorted, HEAD beside
// GET — and the first such pattern. An empty allow means no method
// serves the path. known lets a mux with a catch-all leave it out.
func AllowedMethods(mux *http.ServeMux, methods []string, r *http.Request, known func(pattern string) bool) (allow, first string) {
	var allowed []string
	probe := r.Clone(r.Context())
	for _, m := range methods {
		if m == r.Method {
			continue
		}
		probe.Method = m
		if _, pattern := mux.Handler(probe); known(pattern) {
			allowed = append(allowed, m)
			if m == http.MethodGet {
				allowed = append(allowed, http.MethodHead)
			}
			if first == "" {
				first = pattern
			}
		}
	}
	sort.Strings(allowed)
	return strings.Join(allowed, ", "), first
}

// WriteMethodNotAllowed is the uniform 405 for a resource that exists
// under the methods in allow.
func WriteMethodNotAllowed(w http.ResponseWriter, r *http.Request, allow string) {
	w.Header().Set("Allow", allow)
	writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
		"method "+r.Method+" not allowed (see Allow header)")
}

// metricRoute labels a request for the metrics layer: the table pattern
// when a route matched, the bounded "other" bucket otherwise, prefixed
// with the (allow-listed) method.
func metricRoute(r *http.Request) string {
	path := "other"
	if rt := routeOf(r); rt != nil {
		path = rt.pattern
	}
	method := r.Method
	switch method {
	case http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete,
		http.MethodHead, http.MethodOptions, http.MethodPatch:
	default:
		method = "OTHER"
	}
	return method + " " + path
}
