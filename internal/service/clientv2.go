package service

import (
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/url"
	"strconv"
)

// The upload and listing side of the client: streaming batch uploads
// with per-chunk results (a single chunk is a batch of one), the
// paginated dataset (with an iterator), and the jobs listing.

// UploadBatchStream sends the chunks as one NDJSON batch to
// POST /v2/traces and invokes fn for every result line as it arrives,
// in input order. fn returning an error aborts the stream and is
// returned verbatim. When every chunk belongs to one user, the batch is
// tagged with X-Mood-User so the server rate-limits it per participant.
func (c *Client) UploadBatchStream(chunks []BatchChunk, fn func(BatchResult) error) error {
	if len(chunks) == 0 {
		return fmt.Errorf("service: empty batch")
	}
	user := chunks[0].User
	keyed := true
	for _, ch := range chunks {
		if ch.User != user {
			user = ""
		}
		if ch.Key == "" {
			keyed = false
		}
	}

	// A fully keyed batch is protected by the server's idempotency
	// window, so a transport-level failure before any result arrived
	// (connection refused/reset during a node failover) re-issues the
	// whole batch: replays answer from the window, fresh chunks process
	// once. Unkeyed batches never retry — a re-send could double-commit.
	clk := c.clock()
	for attempt := 1; ; attempt++ {
		retryable, err := c.uploadBatchOnce(chunks, user, fn)
		if err == nil || !retryable || !keyed || attempt >= clientRetryAttempts {
			return err
		}
		clk.Sleep(clientBackoff(attempt))
	}
}

// uploadBatchOnce performs one POST /v2/traces exchange. retryable
// reports that the failure happened before fn saw a single result
// (transport failure or an intermediary 502), i.e. the batch can be
// re-issued without double-delivering results to the caller.
func (c *Client) uploadBatchOnce(chunks []BatchChunk, user string, fn func(BatchResult) error) (retryable bool, _ error) {
	// The request body is a pipe fed as the server consumes it, so a
	// large backlog is never materialised client-side: the server's
	// in-flight window paces the encoder through the connection's flow
	// control, mirroring the endpoint's own backpressure design. The
	// lines gather in a pooled buffer, which amortises the synchronous
	// pipe handoff over ~tens of lines instead of paying it per chunk.
	pr, pw := io.Pipe()
	//mood:allow goroutinejoin -- pipe feeder is request-scoped: the transport closing the request body (pr) unblocks every pw.Write, so the goroutine cannot outlive the call
	go func() {
		buf := GetBuffer()
		defer PutBuffer(buf) // a pipe Write returns once the reader has copied it all
		for i, ch := range chunks {
			line, err := ch.appendLine(buf.AvailableBuffer())
			if err != nil {
				pw.CloseWithError(fmt.Errorf("service: encoding batch chunk: %w", err))
				return
			}
			buf.Write(line)
			if buf.Len() < 64<<10 && i < len(chunks)-1 {
				continue
			}
			if _, err := pw.Write(buf.Bytes()); err != nil {
				pw.CloseWithError(err)
				return
			}
			buf.Reset()
		}
		pw.Close()
	}()

	req, err := http.NewRequest(http.MethodPost, c.BaseURL+"/v2/traces", pr)
	if err != nil {
		pr.Close()
		return false, fmt.Errorf("service: batch upload: %w", err)
	}
	req.Header.Set("Content-Type", NDJSONContentType)
	if user != "" {
		req.Header.Set(UserHeader, user)
	}
	if c.authToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.authToken)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return true, fmt.Errorf("service: batch upload: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode == http.StatusBadGateway, decodeError(resp)
	}

	dec := json.NewDecoder(resp.Body)
	results := 0
	for dec.More() {
		var res BatchResult
		if err := dec.Decode(&res); err != nil {
			return results == 0, fmt.Errorf("service: decoding batch result %d: %w", results, err)
		}
		results++
		if err := fn(res); err != nil {
			return false, err
		}
	}
	if results != len(chunks) {
		return false, fmt.Errorf("service: server answered %d results for %d chunks", results, len(chunks))
	}
	return false, nil
}

// UploadBatch sends the chunks as one NDJSON batch and collects the
// per-chunk results, in input order. The call succeeds as long as the
// batch itself was processed; individual chunk failures are reported in
// their BatchResult (Status/Code), not as an error.
func (c *Client) UploadBatch(chunks []BatchChunk) ([]BatchResult, error) {
	out := make([]BatchResult, 0, len(chunks))
	err := c.UploadBatchStream(chunks, func(res BatchResult) error {
		out = append(out, res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DatasetQuery selects a page of GET /v2/dataset.
type DatasetQuery struct {
	// Cursor is the opaque next_cursor of the previous page ("" for the
	// first page).
	Cursor string
	// Limit caps the page size (server default 100, max 1000).
	Limit int
	// User filters to one published pseudonym.
	User string
	// From / To window every trace to [From, To) unix seconds (0 =
	// unbounded).
	From, To int64
	// IfNoneMatch revalidates against a previously returned ETag; on
	// match the page comes back with NotModified set and no traces.
	IfNoneMatch string
}

func (q DatasetQuery) values() url.Values {
	vals := url.Values{}
	if q.Cursor != "" {
		vals.Set("cursor", q.Cursor)
	}
	if q.Limit > 0 {
		vals.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.User != "" {
		vals.Set("user", q.User)
	}
	if q.From != 0 {
		vals.Set("from", strconv.FormatInt(q.From, 10))
	}
	if q.To != 0 {
		vals.Set("to", strconv.FormatInt(q.To, 10))
	}
	return vals
}

// ClientDatasetPage is one fetched page plus its cache validator.
type ClientDatasetPage struct {
	DatasetPage
	// ETag revalidates future fetches (DatasetQuery.IfNoneMatch).
	ETag string
	// NotModified is set when the server answered 304: the dataset has
	// not changed since the presented ETag and Traces is empty.
	NotModified bool
}

// maxDatasetPageBody bounds what the client buffers for one page.
const maxDatasetPageBody = 1 << 30

// DatasetPageV2 fetches one page of the published dataset.
func (c *Client) DatasetPageV2(q DatasetQuery) (ClientDatasetPage, error) {
	u := c.BaseURL + "/v2/dataset"
	if vals := q.values(); len(vals) > 0 {
		u += "?" + vals.Encode()
	}
	resp, err := c.retryDo(func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodGet, u, nil)
		if err != nil {
			return nil, err
		}
		if q.IfNoneMatch != "" {
			req.Header.Set("If-None-Match", q.IfNoneMatch)
		}
		if c.authToken != "" {
			req.Header.Set("Authorization", "Bearer "+c.authToken)
		}
		return req, nil
	})
	if err != nil {
		return ClientDatasetPage{}, fmt.Errorf("service: dataset page: %w", err)
	}
	defer resp.Body.Close()
	page := ClientDatasetPage{ETag: resp.Header.Get("ETag")}
	switch resp.StatusCode {
	case http.StatusNotModified:
		page.NotModified = true
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return page, nil
	case http.StatusOK:
		buf, err := ReadBody(resp, maxDatasetPageBody)
		if err != nil {
			return ClientDatasetPage{}, fmt.Errorf("service: reading dataset page: %w", err)
		}
		// The decoded page copies what it keeps, so the buffer goes
		// straight back to the pool.
		page.DatasetPage, err = decodeDatasetPage(buf.Bytes())
		PutBuffer(buf)
		if err != nil {
			return ClientDatasetPage{}, fmt.Errorf("service: decoding dataset page: %w", err)
		}
		return page, nil
	default:
		return ClientDatasetPage{}, decodeError(resp)
	}
}

// DatasetPages iterates the published dataset page by page, following
// cursors until the final page. The yielded error, when non-nil, ends
// the sequence.
//
//	for page, err := range client.DatasetPages(service.DatasetQuery{Limit: 500}) {
//		if err != nil { ... }
//		...
//	}
func (c *Client) DatasetPages(q DatasetQuery) iter.Seq2[ClientDatasetPage, error] {
	return func(yield func(ClientDatasetPage, error) bool) {
		q := q
		q.IfNoneMatch = "" // revalidation would truncate the iteration
		for {
			page, err := c.DatasetPageV2(q)
			if !yield(page, err) || err != nil {
				return
			}
			if page.NextCursor == "" {
				return
			}
			q.Cursor = page.NextCursor
		}
	}
}
