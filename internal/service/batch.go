package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"unicode/utf8"

	"mood/internal/trace"
)

// POST /v2/traces: the streaming batch upload. The request body is an
// NDJSON stream — one BatchChunk JSON document per line — and the
// response is an NDJSON stream of one BatchResult per chunk, in input
// order, flushed as chunks complete. A single connection therefore
// carries an arbitrarily long upload session while auth, rate limiting
// and connection overhead are paid once per batch instead of once per
// chunk, and the chunks fan out into the sharded worker pool in bulk.
//
// Unlike the v1 single-chunk endpoint, a full queue exerts
// backpressure on the stream (reading pauses until a slot frees)
// instead of shedding: a bulk feeder wants pacing, not bounces. Chunks
// are still individually validated, individually idempotent (per-line
// "key") and individually async-able (per-line "async": the result
// line carries the job handle instead of the outcome).

// NDJSONContentType is the newline-delimited JSON media type of the
// batch request and response streams.
const NDJSONContentType = "application/x-ndjson"

// Batch stream limits.
const (
	// maxBatchLineBytes bounds one NDJSON line (chunk). 8 MiB holds
	// roughly a year of 30-second samples for one user.
	maxBatchLineBytes = 8 << 20
	// maxBatchChunks bounds one batch request.
	maxBatchChunks = 100000
)

// BatchChunk is one line of the POST /v2/traces request stream.
type BatchChunk struct {
	User    string        `json:"user"`
	Records trace.Records `json:"records"`
	// Key is the optional per-chunk idempotency key (same semantics as
	// the v1 X-Mood-Idempotency-Key header, scoped per user).
	Key string `json:"key,omitempty"`
	// Async enqueues the chunk and reports the job handle instead of
	// waiting for the outcome.
	Async bool `json:"async,omitempty"`
}

// BatchResult is one line of the POST /v2/traces response stream.
type BatchResult struct {
	// Index is the zero-based position of the chunk in the request
	// stream; results are streamed in index order.
	Index int `json:"index"`
	// User echoes the chunk's user when it could be parsed.
	User string `json:"user,omitempty"`
	// Status is the HTTP-equivalent status of this chunk.
	Status int `json:"status"`
	// Code is the stable problem code when Status is an error.
	Code string `json:"code,omitempty"`
	// Error is the human-readable error text.
	Error string `json:"error,omitempty"`
	// Replay marks a result served from the idempotency window.
	Replay bool `json:"replay,omitempty"`
	// RetryAfterSeconds is set on retryable errors (503).
	RetryAfterSeconds int `json:"retry_after,omitempty"`
	// Result is the protection outcome (Status 200).
	Result *UploadResponse `json:"result,omitempty"`
	// Job is the async job handle (Status 202, or an async replay).
	Job *JobStatus `json:"job,omitempty"`
}

// batchOutcomeResult maps a chunk outcome onto the wire line.
func batchOutcomeResult(idx int, user string, out chunkOutcome) BatchResult {
	res := BatchResult{
		Index:  idx,
		User:   user,
		Status: out.status,
		Replay: out.replay,
		Result: out.resp,
		Job:    out.job,
	}
	if out.status >= 400 {
		res.Code = out.code
		res.Error = out.detail
	}
	if out.retryAfter {
		res.RetryAfterSeconds = 1
	}
	return res
}

// batchError renders a chunk-level failure line.
func batchError(idx int, user string, status int, code, detail string) BatchResult {
	return BatchResult{Index: idx, User: user, Status: status, Code: code, Error: detail}
}

// handleBatchUpload streams the batch. The response status is decided
// by the first chunk: a batch with no chunk lines at all (empty body or
// blank lines only) is a request-level 400 problem; everything after
// the first chunk is reported per line.
func (s *Server) handleBatchUpload(w http.ResponseWriter, r *http.Request) {
	// The whole point of the batch endpoint is interleaving reads of
	// the request stream with writes of the result stream; the HTTP/1
	// server severs the request body at the first response write unless
	// full duplex is requested. Writers that cannot do it (recorders,
	// HTTP/2 — which is full-duplex natively) just decline.
	http.NewResponseController(w).EnableFullDuplex() //nolint:errcheck

	hdrUser := r.Header.Get(UserHeader)
	br := bufio.NewReaderSize(r.Body, 64<<10)

	// Find the first chunk line; blank lines carry nothing and are
	// skipped. An oversized first line is a chunk (it gets result line
	// 0), not an unreadable stream.
	var line []byte
	var readErr error
	for {
		line, readErr = readBatchLine(br)
		if len(bytes.TrimSpace(line)) > 0 || readErr != nil {
			break
		}
	}
	if len(bytes.TrimSpace(line)) == 0 && readErr != nil && !errors.Is(readErr, errChunkTooLarge) {
		if errors.Is(readErr, io.EOF) {
			writeError(w, r, http.StatusBadRequest, CodeEmptyBatch, "empty batch: no chunk lines in request body")
			return
		}
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, "unreadable batch stream: "+readErr.Error())
		return
	}

	w.Header().Set("Content-Type", NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// The pipeline: the main loop parses lines and spawns one bounded
	// worker per chunk; the writer goroutine emits results strictly in
	// input order, flushing after each line so slow chunks do not gate
	// the results of earlier ones reaching the client. The pending
	// buffer is the in-flight window — when the writer falls behind
	// (client backpressure) or the pool is saturated, the main loop
	// stops reading, which pushes the backpressure to the sender.
	window := 2 * s.opts.Workers
	if window < 4 {
		window = 4
	}
	if window > 64 {
		window = 64
	}
	type slot struct{ res chan BatchResult }
	pending := make(chan *slot, window)
	done := make(chan struct{})
	go func() {
		defer close(done)
		enc := json.NewEncoder(w)
		dirty := false
		flush := func() {
			if dirty && flusher != nil {
				flusher.Flush()
			}
			dirty = false
		}
		defer flush()
		for sl := range pending {
			var res BatchResult
			select {
			case res = <-sl.res:
			default:
				// The head result is still computing: push what is
				// buffered to the client before blocking, so finished
				// chunks are visible while stragglers grind.
				flush()
				res = <-sl.res
			}
			if err := enc.Encode(res); err != nil {
				// The client is gone; keep draining so chunk workers
				// never block on an abandoned response.
				continue
			}
			dirty = true
		}
	}()

	ctx := r.Context()
	// emit hands one pre-resolved result line to the writer, respecting
	// the same in-flight window as real chunks; false means the client
	// is gone.
	emit := func(res BatchResult) bool {
		sl := &slot{res: make(chan BatchResult, 1)}
		sl.res <- res
		select {
		case pending <- sl:
			return true
		case <-ctx.Done():
			return false
		}
	}
	idx := 0
loop:
	for {
		switch {
		case errors.Is(readErr, errChunkTooLarge):
			// The offending line was drained up to its newline; the
			// chunk is individually rejected and the stream continues.
			if !emit(batchError(idx, "", http.StatusRequestEntityTooLarge, CodeChunkTooLarge,
				"chunk line exceeds "+strconv.Itoa(maxBatchLineBytes)+" bytes; split the chunk")) {
				break loop
			}
			idx++
			readErr = nil
		case len(bytes.TrimSpace(line)) > 0:
			if idx >= maxBatchChunks {
				emit(batchError(idx, "", http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
					"batch exceeds "+strconv.Itoa(maxBatchChunks)+" chunks; split the upload"))
				break loop
			}
			sl := &slot{res: make(chan BatchResult, 1)}
			select {
			case pending <- sl:
			case <-ctx.Done():
				break loop
			}
			go func(i int, ln []byte) {
				sl.res <- s.processBatchChunk(ctx, i, ln, hdrUser)
			}(idx, line)
			idx++
		}
		if readErr != nil {
			if !errors.Is(readErr, io.EOF) {
				emit(batchError(idx, "", http.StatusBadRequest, CodeBadRequest,
					"batch stream aborted: "+readErr.Error()))
			}
			break
		}
		line, readErr = readBatchLine(br)
	}
	close(pending)
	<-done
}

// errChunkTooLarge marks a single over-limit line: the reader resyncs
// at the next newline, so the chunk is rejected individually instead of
// aborting the whole stream.
var errChunkTooLarge = errors.New("chunk line over the size limit")

// readBatchLine reads one NDJSON line, bounding its size. io.EOF after
// the final line is the normal termination; errChunkTooLarge rejects
// just this line (already drained to its delimiter); any other error is
// terminal for the stream. The returned line may hold content alongside
// io.EOF (final line without a trailing newline).
func readBatchLine(br *bufio.Reader) ([]byte, error) {
	var buf []byte
	for {
		part, err := br.ReadSlice('\n')
		buf = append(buf, part...)
		if len(buf) > maxBatchLineBytes {
			// Drain the remainder of the oversized line so the stream
			// can resync at the next delimiter.
			for errors.Is(err, bufio.ErrBufferFull) {
				_, err = br.ReadSlice('\n')
			}
			if err == nil || errors.Is(err, io.EOF) {
				return nil, errChunkTooLarge
			}
			return nil, err
		}
		if err == nil {
			return buf[:len(buf)-1], nil // strip the delimiter
		}
		if errors.Is(err, io.EOF) {
			return buf, io.EOF
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue
		}
		return buf, err
	}
}

// processBatchChunk validates and executes one chunk line.
func (s *Server) processBatchChunk(ctx context.Context, idx int, line []byte, hdrUser string) BatchResult {
	c, ok := parseBatchChunkFast(line)
	if !ok {
		// Non-canonical line (escapes, unknown fields, reordered
		// nesting, garbage): the generic decoder is the arbiter, with
		// its exact semantics and error text.
		c = BatchChunk{}
		if err := json.Unmarshal(line, &c); err != nil {
			return batchError(idx, "", http.StatusBadRequest, CodeBadChunk, "undecodable chunk: "+err.Error())
		}
	}
	if err := validateUserID(c.User); err != nil {
		return batchError(idx, c.User, http.StatusBadRequest, CodeInvalidUser, err.Error())
	}
	if hdrUser != "" && c.User != hdrUser {
		// The header keys the rate limiter for the whole batch; letting a
		// chunk name someone else would spend the declared user's budget
		// on another participant's upload.
		return batchError(idx, c.User, http.StatusBadRequest, CodeUserMismatch,
			UserHeader+" header does not match chunk user")
	}
	if len(c.Records) == 0 {
		return batchError(idx, c.User, http.StatusBadRequest, CodeEmptyChunk, "no records")
	}
	t := trace.New(c.User, c.Records)
	if err := t.Validate(); err != nil {
		return batchError(idx, c.User, http.StatusBadRequest, CodeInvalidTrace, "invalid trace: "+err.Error())
	}
	if len(c.Key) > maxIdempotencyKeyLen {
		return batchError(idx, c.User, http.StatusBadRequest, CodeKeyTooLong,
			"idempotency key exceeds "+strconv.Itoa(maxIdempotencyKeyLen)+" bytes")
	}
	return batchOutcomeResult(idx, c.User, s.executeChunk(ctx, t, c.Key, c.Async, true))
}

// parseBatchChunkFast parses the canonical batch line shape —
// {"user":"…","records":[…],"key":"…","async":bool} in any order with
// escape-free strings — in a single pass, without the reflective
// decoder's double document scan. This is the wire format the typed
// client emits, i.e. the hot path; anything else (escaped strings,
// non-UTF-8, unknown fields, nulls) reports ok=false and the caller
// falls back to encoding/json, whose semantics the fast path mirrors
// exactly (pinned by FuzzUploadV2's cross-check).
func parseBatchChunkFast(line []byte) (BatchChunk, bool) {
	var c BatchChunk
	sc := chunkScanner{line: line, n: len(line)}
	sc.skipWS()
	if !sc.eat('{') {
		return c, false
	}
	sc.skipWS()
	if sc.eat('}') {
		sc.skipWS()
		return c, sc.i == sc.n
	}
	for {
		sc.skipWS()
		key, ok := sc.parseString()
		if !ok {
			return c, false
		}
		sc.skipWS()
		if !sc.eat(':') {
			return c, false
		}
		sc.skipWS()
		switch key {
		case "user":
			if c.User, ok = sc.parseString(); !ok {
				return c, false
			}
		case "key":
			if c.Key, ok = sc.parseString(); !ok {
				return c, false
			}
		case "async":
			switch {
			case bytes.HasPrefix(sc.rest(), []byte("true")):
				c.Async = true
				sc.i += 4
			case bytes.HasPrefix(sc.rest(), []byte("false")):
				c.Async = false
				sc.i += 5
			default:
				return c, false
			}
		case "records":
			recs, consumed, ok := trace.ScanRecords(sc.rest())
			if !ok {
				return c, false
			}
			c.Records = recs
			sc.i += consumed
		default:
			return c, false
		}
		sc.skipWS()
		switch {
		case sc.eat(','):
		case sc.eat('}'):
			sc.skipWS()
			return c, sc.i == sc.n
		default:
			return c, false
		}
	}
}

// chunkScanner is parseBatchChunkFast's cursor over one batch line. It
// is a struct with methods rather than a set of closures: a closure
// capturing the cursor by reference forces it (and the line header) to
// the heap on every call, and the fast path exists to not allocate.
type chunkScanner struct {
	line []byte
	i, n int
}

func (sc *chunkScanner) rest() []byte { return sc.line[sc.i:] }

func (sc *chunkScanner) skipWS() {
	for sc.i < sc.n {
		switch sc.line[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

func (sc *chunkScanner) eat(b byte) bool {
	if sc.i < sc.n && sc.line[sc.i] == b {
		sc.i++
		return true
	}
	return false
}

// parseString consumes a canonical string: escape-free, no control
// bytes (the stdlib rejects raw controls and rewrites invalid UTF-8,
// so both defer to it).
func (sc *chunkScanner) parseString() (string, bool) {
	s, ok := sc.parseRawString()
	return string(s), ok
}

// parseRawString is parseString without the copy: the bytes between the
// quotes, aliasing the input. For object keys, which are only compared.
func (sc *chunkScanner) parseRawString() ([]byte, bool) {
	if !sc.eat('"') {
		return nil, false
	}
	start := sc.i
	for sc.i < sc.n && sc.line[sc.i] != '"' {
		if sc.line[sc.i] == '\\' || sc.line[sc.i] < 0x20 {
			return nil, false
		}
		sc.i++
	}
	if sc.i >= sc.n {
		return nil, false
	}
	s := sc.line[start:sc.i]
	sc.i++
	if !utf8.Valid(s) {
		return nil, false
	}
	return s, true
}
