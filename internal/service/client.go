package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"mood/internal/clock"
	"mood/internal/trace"
)

// Client is the participant-side library that talks to the middleware.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to a client with a 60 s timeout (protection
	// is CPU-heavy server-side).
	HTTPClient *http.Client
	// Clock drives the WaitJob poll loop (deadline and backoff);
	// defaults to the system clock.
	Clock clock.Clock

	authToken string
}

// NewClient returns a client for the given server root.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:    baseURL,
		HTTPClient: &http.Client{Timeout: 60 * time.Second},
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) clock() clock.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return clock.System()
}

// post issues a bodiless POST with the configured auth header. It is
// not retried: the one caller, Retrain, is not idempotent.
func (c *Client) post(u string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, u, nil)
	if err != nil {
		return nil, err
	}
	if c.authToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.authToken)
	}
	return c.httpClient().Do(req)
}

// Job fetches the status of an asynchronous upload.
func (c *Client) Job(id string) (JobStatus, error) {
	resp, err := c.get(c.BaseURL + "/v2/jobs/" + url.PathEscape(id))
	return readJSON[JobStatus](resp, err, "job status", "job status")
}

// WaitJob polls an asynchronous upload until it finishes or the timeout
// expires. A failed job is returned with a nil error: the failure is in
// JobStatus.Error.
func (c *Client) WaitJob(id string, timeout time.Duration) (JobStatus, error) {
	clk := c.clock()
	deadline := clk.Now().Add(timeout)
	for {
		j, err := c.Job(id)
		if err != nil {
			return JobStatus{}, err
		}
		if j.State == JobDone || j.State == JobFailed {
			return j, nil
		}
		if clk.Now().After(deadline) {
			return j, fmt.Errorf("service: job %s still %s after %v", id, j.State, timeout)
		}
		clk.Sleep(20 * time.Millisecond)
	}
}

// Retrain triggers a retrain + re-audit pass (POST /v2/admin/retrain)
// and returns what it did. The server answers 404 when no retrainer is
// configured.
func (c *Client) Retrain() (RetrainReport, error) {
	resp, err := c.post(c.BaseURL + "/v2/admin/retrain")
	return readJSON[RetrainReport](resp, err, "retrain", "retrain report")
}

// Metrics fetches the server's request metrics.
func (c *Client) Metrics() (MetricsSnapshot, error) {
	resp, err := c.get(c.BaseURL + "/v2/metrics")
	return readJSON[MetricsSnapshot](resp, err, "metrics", "metrics")
}

// Dataset fetches the entire published, protected dataset by paging
// through GET /v2/dataset (pages arrive sorted by pseudonym, so the
// concatenation reassembles the canonical dataset order).
func (c *Client) Dataset() (trace.Dataset, error) {
	var d trace.Dataset
	for page, err := range c.DatasetPages(DatasetQuery{Limit: MaxPageLimit}) {
		if err != nil {
			return trace.Dataset{}, fmt.Errorf("service: dataset: %w", err)
		}
		if d.Name == "" {
			d.Name = page.Name
		}
		d.Traces = append(d.Traces, page.Traces...)
	}
	return d, nil
}

// Stats fetches the server counters.
func (c *Client) Stats() (ServerStats, error) {
	resp, err := c.get(c.BaseURL + "/v2/stats")
	return readJSON[ServerStats](resp, err, "stats", "stats")
}

// UserStats fetches one participant's accounting. The ID is a path
// segment, so it is escaped: an uploader ID may hold '?', '#' or '%'.
func (c *Client) UserStats(user string) (UserStats, error) {
	resp, err := c.get(c.BaseURL + "/v2/users/" + url.PathEscape(user))
	return readJSON[UserStats](resp, err, "user stats", "user stats")
}

// readJSON finishes a request whose reply is one JSON document: a
// failed request becomes "service: <call>: …", a non-200 reply its
// StatusError, and a body that does not decode "service: decoding
// <doc>: …". Every error comes with T's zero value.
func readJSON[T any](resp *http.Response, err error, call, doc string) (T, error) {
	var zero T
	if err != nil {
		return zero, fmt.Errorf("service: %s: %w", call, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return zero, decodeError(resp)
	}
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return zero, fmt.Errorf("service: decoding %s: %w", doc, err)
	}
	return out, nil
}

// SetAuthToken configures the client to send the bearer token on every
// request and returns the client for chaining.
func (c *Client) SetAuthToken(token string) *Client {
	c.authToken = token
	return c
}

// StatusError is the typed form of a non-2xx API reply, so callers can
// branch on the status code (errors.As) instead of matching error text.
type StatusError struct {
	Code int
	Msg  string
	// ProblemCode is the stable machine-readable code of the
	// problem+json error ("" when the body was not a problem).
	ProblemCode Code
}

func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("service: server returned %d: %s", e.Code, e.Msg)
	}
	return fmt.Sprintf("service: server returned %d", e.Code)
}

// decodeError reads a non-2xx reply's RFC 7807 problem into a
// StatusError; a body that is not a problem (an intermediary's error
// page) leaves only the status code.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	se := &StatusError{Code: resp.StatusCode}
	var p Problem
	if err := json.Unmarshal(body, &p); err == nil && p.Code != "" {
		se.Msg = p.Detail
		if se.Msg == "" {
			se.Msg = p.Title
		}
		se.ProblemCode = p.Code
	}
	return se
}
