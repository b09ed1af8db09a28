package service

import (
	"crypto/subtle"
	"net/http"
	"strings"
)

// WithAuth wraps a handler with bearer-token authentication: requests
// must carry "Authorization: Bearer <token>". Routes the table marks
// noAuth (the liveness probe, the OpenAPI document) stay open; in
// hand-built chains without the route resolver, the health endpoint is
// recognised by path. Token comparison is constant-time.
func WithAuth(token string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rt := routeOf(r); rt != nil {
			if rt.noAuth {
				next.ServeHTTP(w, r)
				return
			}
		} else if r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		got, ok := bearerToken(r)
		if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(token)) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="mood"`)
			writeError(w, http.StatusUnauthorized, CodeUnauthorized, "missing or invalid bearer token")
			return
		}
		next.ServeHTTP(w, r)
	})
}

func bearerToken(r *http.Request) (string, bool) {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if !strings.HasPrefix(h, prefix) {
		return "", false
	}
	return strings.TrimPrefix(h, prefix), true
}

// SetAuthToken configures the client to send the bearer token on every
// request and returns the client for chaining.
func (c *Client) SetAuthToken(token string) *Client {
	c.authToken = token
	return c
}
