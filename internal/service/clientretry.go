package service

import (
	"fmt"
	"io"
	"net/http"
	"time"
)

// The client's transient-retry layer. A clustered deployment puts a
// router and a failover window between the participant and their node:
// a connection refused/reset during a node restart, or a 502 from an
// intermediate hop, says nothing about whether the request is invalid —
// only that it never reached a serving node. Requests that are safe to
// re-issue (GETs, and fully keyed batches protected by the idempotency
// window) retry those failures with capped backoff on the injected
// clock instead of surfacing them. Anything the service itself answered
// (429, 503, 4xx) is returned untouched: those are real protocol
// answers with their own contracts (Retry-After, problem codes) and
// callers decide.
const (
	clientRetryAttempts = 5
	clientRetryBase     = 25 * time.Millisecond
	clientRetryCap      = 400 * time.Millisecond
)

// clientBackoff is the pause before re-issuing attempt n (1-based
// count of failures so far): doubling from the base, capped.
func clientBackoff(failures int) time.Duration {
	d := clientRetryBase << (failures - 1)
	if d > clientRetryCap || d <= 0 {
		d = clientRetryCap
	}
	return d
}

// retryDo issues the built request up to clientRetryAttempts times,
// re-issuing on transport-level failures (dial refused, connection
// reset) and on 502 from an intermediary. build runs per attempt and
// must produce a request safe to re-send (nil or replayable body).
func (c *Client) retryDo(build func() (*http.Request, error)) (*http.Response, error) {
	clk := c.clock()
	var lastErr error
	for attempt := 1; attempt <= clientRetryAttempts; attempt++ {
		if attempt > 1 {
			clk.Sleep(clientBackoff(attempt - 1))
		}
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusBadGateway && attempt < clientRetryAttempts {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // drained for reuse
			resp.Body.Close()
			lastErr = &StatusError{Code: resp.StatusCode, Msg: "bad gateway"}
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("service: %d attempts failed: %w", clientRetryAttempts, lastErr)
}

// get issues an idempotent GET through the transient-retry layer.
func (c *Client) get(url string) (*http.Response, error) {
	return c.retryDo(func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		if c.authToken != "" {
			req.Header.Set("Authorization", "Bearer "+c.authToken)
		}
		return req, nil
	})
}
