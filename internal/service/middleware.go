package service

import (
	"crypto/subtle"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mood/internal/clock"
)

// middleware is one layer of the server's HTTP processing chain: it
// wraps a handler and returns the wrapped handler. Layers compose with
// chain in a fixed, documented order (outermost first):
//
//	Resolve -> Metrics -> Recover -> Timeout -> Auth -> RateLimit -> mux
//
// Resolve matches the request against the declarative route table once
// and stashes the row in the context; every layer below reads its
// behaviour — exemptions, rate-limit key shape, metrics label — from
// that row instead of re-deriving it from the path.
// Metrics sit outermost (below Resolve) so every response is recorded
// with the status the client actually received — 500s from recovered
// panics, 503s from the timeout layer, 401s from auth, 429s from the
// limiter. Recovery wraps everything below it so a panic anywhere
// still yields a 500; the timeout bounds everything that can block;
// auth runs before the rate limiter so unauthenticated junk is turned
// away with 401 without ever touching limiter state — otherwise a
// tokenless attacker could drain a victim's bucket just by naming them
// in X-Mood-User.
type middleware func(http.Handler) http.Handler

// chain applies the middlewares to h in the given order: the first
// middleware becomes the outermost layer.
func chain(h http.Handler, mws ...middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// UserHeader carries the participant ID on API requests so admission
// control (per-user rate limiting) can run before the JSON body is
// parsed. The Client sets it automatically. The header is self-declared
// identity, like each chunk's "user" field — the batch handler rejects
// chunks where the two disagree, so a client cannot spend one user's
// rate budget while uploading as another.
const UserHeader = "X-Mood-User"

// ---------------------------------------------------------------------------
// Panic recovery.

// recoverPanics converts a handler panic into a 500 problem instead of killing
// the connection (and, under some servers, the process).
// http.ErrAbortHandler is re-panicked as the contract requires.
func recoverPanics() middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if p := recover(); p != nil {
					if p == http.ErrAbortHandler {
						panic(p)
					}
					writeError(w, http.StatusInternalServerError, CodeInternal, "internal error")
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// ---------------------------------------------------------------------------
// Request timeout.

// timeout bounds the request with http.TimeoutHandler: the client gets
// a 503 timeout problem after d even if the protection engine is still
// grinding, and the request context below is cancelled. Routes the table
// marks noTimeout are exempt: TimeoutHandler buffers the entire response
// in memory, which would break the streaming batch endpoint outright and
// trade a large dataset download's streaming for a per-request copy of
// the whole payload.
func timeout(d time.Duration) middleware {
	msg := problemBody(http.StatusServiceUnavailable, CodeTimeout, "request timed out")
	return func(next http.Handler) http.Handler {
		th := http.TimeoutHandler(next, d, msg)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if rt := routeOf(r); rt != nil && rt.noTimeout {
				next.ServeHTTP(w, r)
				return
			}
			// Pre-set the type on the outer writer so the timeout 503 body
			// is served as problem+json; successful inner responses
			// overwrite it.
			w.Header().Set("Content-Type", ProblemContentType)
			th.ServeHTTP(w, r)
		})
	}
}

// ---------------------------------------------------------------------------
// Per-user token-bucket rate limiting.

// rateLimit admits at most rps requests per second per user with the
// given burst, answering 429 with a Retry-After hint otherwise.
// Upload routes (the table's userKeyed rows) are keyed by the
// X-Mood-User header (which the handlers verify against the payload, so
// it cannot be rotated to mint fresh buckets); every other request is
// keyed by client IP so scrapes cannot dodge the limiter with
// self-declared identities. Probe and poll routes (the table's noLimit
// rows: /healthz, metrics, job polling, the OpenAPI document) stay
// exempt: they are O(1) in-memory reads, and throttling the async poll
// loop would turn accepted uploads into client-side failures.
// The server's clock drives refill, so manual-clock tests can step the
// limiter.
func rateLimit(rps float64, burst int, clk clock.Clock) middleware {
	rl := newRateLimiter(rps, burst, clk)
	return rl.middleware
}

type rateLimiter struct {
	rps   float64
	burst float64
	clk   clock.Clock

	mu        sync.Mutex
	buckets   map[string]*bucket
	lastSweep time.Time
}

type bucket struct {
	tokens float64
	last   time.Time
}

// limiterSweepSize is the bucket count above which idle entries are
// swept, so one bucket per ever-seen key cannot grow without bound.
const limiterSweepSize = 10000

func newRateLimiter(rps float64, burst int, clk clock.Clock) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{
		rps:     rps,
		burst:   float64(burst),
		clk:     clk,
		buckets: make(map[string]*bucket),
	}
}

// allow reports whether key may proceed, and if not, how long until the
// next token.
func (rl *rateLimiter) allow(key string) (bool, time.Duration) {
	now := rl.clk.Now()
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if len(rl.buckets) > limiterSweepSize && now.Sub(rl.lastSweep) > 10*time.Second {
		rl.sweepLocked(now)
	}
	b, ok := rl.buckets[key]
	if !ok {
		b = &bucket{tokens: rl.burst, last: now}
		rl.buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * rl.rps
	if b.tokens > rl.burst {
		b.tokens = rl.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / rl.rps * float64(time.Second))
	return false, wait
}

// sweepLocked drops buckets idle long enough to have refilled: they are
// indistinguishable from fresh ones, so forgetting them changes nothing
// for the key's next request.
func (rl *rateLimiter) sweepLocked(now time.Time) {
	rl.lastSweep = now
	for k, b := range rl.buckets {
		if now.Sub(b.last).Seconds()*rl.rps >= rl.burst {
			delete(rl.buckets, k)
		}
	}
}

// limitExempt reports whether the request skips the limiter: the
// table's noLimit flag of the matched route.
func limitExempt(r *http.Request) bool {
	rt := routeOf(r)
	return rt != nil && rt.noLimit
}

func (rl *rateLimiter) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if limitExempt(r) {
			next.ServeHTTP(w, r)
			return
		}
		ok, wait := rl.allow(rateKey(r))
		if !ok {
			w.Header().Set("Retry-After", retryAfterSeconds(wait))
			writeError(w, http.StatusTooManyRequests, CodeRateLimited, "rate limit exceeded")
			return
		}
		next.ServeHTTP(w, r)
	})
}

func rateKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	// Only upload routes key on self-declared identity, and always
	// combined with the source IP: the handlers reject a header/payload
	// mismatch, so the header cannot be rotated to mint fresh buckets
	// for real uploads, and the IP component stops a client from
	// burning a victim's budget by naming them from elsewhere. Residual
	// risk: a client sharing the victim's IP (NAT) can still burn the
	// shared bucket with mismatched requests, since the 400 happens
	// after the debit; exact accounting there needs authenticated
	// identity.
	if rt := routeOf(r); rt != nil && rt.userKeyed {
		if u := r.Header.Get(UserHeader); u != "" {
			return "user:" + u + "|ip:" + host
		}
	}
	return "ip:" + host
}

// retryAfterSeconds renders a wait as whole seconds, at least 1, as the
// Retry-After header requires.
func retryAfterSeconds(wait time.Duration) string {
	secs := int(wait/time.Second) + 1
	return strconv.Itoa(secs)
}

// ---------------------------------------------------------------------------
// Request metrics.

// RouteMetrics aggregates one route's traffic.
type RouteMetrics struct {
	// Count is the number of requests observed.
	Count int64 `json:"count"`
	// Status counts responses by status code.
	Status map[string]int64 `json:"status"`
	// TotalMillis and MaxMillis aggregate handler latency.
	TotalMillis float64 `json:"total_ms"`
	MaxMillis   float64 `json:"max_ms"`
	// AvgMillis = TotalMillis / Count, precomputed for scrapers.
	AvgMillis float64 `json:"avg_ms"`
}

// MetricsSnapshot is the GET /v2/metrics payload.
type MetricsSnapshot struct {
	// Routes maps "METHOD /path" (IDs collapsed to {id}) to counters.
	Routes map[string]RouteMetrics `json:"routes"`
}

// requestMetrics is the live store behind MetricsSnapshot.
type requestMetrics struct {
	clk    clock.Clock
	mu     sync.Mutex
	routes map[string]*RouteMetrics
}

func newRequestMetrics(clk clock.Clock) *requestMetrics {
	return &requestMetrics{clk: clk, routes: make(map[string]*RouteMetrics)}
}

func (m *requestMetrics) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := m.clk.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		// Observe in a defer so even a panic unwinding through this
		// layer leaves the request counted. The label comes from the
		// resolved route (routes.go), so the route space stays bounded
		// no matter what paths or methods clients invent.
		defer func() {
			m.observe(metricRoute(r), sw.code, m.clk.Since(start))
		}()
		next.ServeHTTP(sw, r)
	})
}

func (m *requestMetrics) observe(route string, code int, d time.Duration) {
	ms := millis(d)
	m.mu.Lock()
	defer m.mu.Unlock()
	rm, ok := m.routes[route]
	if !ok {
		rm = &RouteMetrics{Status: make(map[string]int64)}
		m.routes[route] = rm
	}
	rm.Count++
	rm.Status[strconv.Itoa(code)]++
	rm.TotalMillis += ms
	if ms > rm.MaxMillis {
		rm.MaxMillis = ms
	}
}

// Snapshot returns a deep copy of the counters.
func (m *requestMetrics) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := MetricsSnapshot{Routes: make(map[string]RouteMetrics, len(m.routes))}
	for route, rm := range m.routes {
		cp := *rm
		cp.Status = make(map[string]int64, len(rm.Status))
		for k, v := range rm.Status {
			cp.Status[k] = v
		}
		if cp.Count > 0 {
			cp.AvgMillis = cp.TotalMillis / float64(cp.Count)
		}
		out.Routes[route] = cp
	}
	return out
}

// statusWriter records the status code written downstream.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards streaming flushes (the batch endpoint) through the
// metrics wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		w.wrote = true
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// controls without a forwarding method here (EnableFullDuplex, the
// deadline setters) reach the server's writer.
func (w *statusWriter) Unwrap() http.ResponseWriter {
	return w.ResponseWriter
}

// ---------------------------------------------------------------------------
// Bearer-token auth.

// auth requires "Authorization: Bearer <token>" on every request except
// the routes the table marks noAuth (the liveness probe and the OpenAPI
// document). Token comparison is constant-time.
func auth(token string) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if rt := routeOf(r); rt != nil && rt.noAuth {
				next.ServeHTTP(w, r)
				return
			}
			got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
			if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(token)) != 1 {
				w.Header().Set("WWW-Authenticate", `Bearer realm="mood"`)
				writeError(w, http.StatusUnauthorized, CodeUnauthorized, "missing or invalid bearer token")
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}
