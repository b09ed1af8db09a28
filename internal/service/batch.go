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
	"sync"
	"time"

	"mood/internal/store"
	"mood/internal/trace"
)

// POST /v2/traces: the streaming batch upload. The request body is an
// NDJSON stream — one BatchChunk JSON document per line — and the
// response is an NDJSON stream of one BatchResult per chunk, in input
// order, flushed as commit windows complete. A single connection
// therefore carries an arbitrarily long upload session while auth, rate
// limiting and connection overhead are paid once per batch instead of
// once per chunk, and the chunks fan out into the sharded worker pool in
// bulk.
//
// A full queue exerts backpressure on the stream (reading pauses until
// a slot frees) instead of shedding: a bulk feeder wants pacing, not
// bounces. Chunks are individually validated, individually idempotent
// (per-line "key") and individually async-able (per-line "async": the
// result line carries the job handle instead of the outcome). A single
// chunk is a batch of one.
//
// A chunk is acknowledged only once its commit is durable, and the one
// cost of that a chunk cannot avoid — the sync — is shared: the
// synchronous chunks of a batch commit through the request's commit
// window (commitWindow below), which appends every chunk that is ready
// as one WAL frame under one sync and only then lets their result lines
// go.

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
	// batchWindow is the in-flight window of one batch request in chunks:
	// lines dispatched whose result has not been written yet. It is also
	// the most chunks one commit window holds. A chunk parked on a sync
	// holds no CPU, so the window is sized for sharing syncs, not by the
	// worker count (the pool bounds the CPU-heavy part).
	batchWindow = 64
	// batchInflightBytes bounds the same window in bytes of request
	// lines, so that batchWindow maximum-size lines cannot be parked in
	// memory at once; any single line fits.
	batchInflightBytes = 4 * maxBatchLineBytes
	// maxGroupBytes closes a commit window by record payload, keeping a
	// group's frame far below the WAL's frame limit whatever its chunks
	// weigh (a chunk heavier than this commits alone).
	maxGroupBytes = 4 << 20
)

// batchReaders recycles the request readers of batch uploads: each is a
// 64 KiB buffer that one request uses from its first line to its last.
var batchReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

// BatchChunk is one line of the POST /v2/traces request stream.
type BatchChunk struct {
	User    string         `json:"user"`
	Records []trace.Record `json:"records"`
	// Key is the optional per-chunk idempotency key, scoped per user: a
	// retry under the same key replays the original outcome.
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
	Code Code `json:"code,omitempty"`
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

// batchError renders a chunk-level failure line.
func batchError(idx int, user string, status int, code Code, detail string) BatchResult {
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
	br := batchReaders.Get().(*bufio.Reader)
	br.Reset(r.Body)
	defer func() {
		br.Reset(nil)
		batchReaders.Put(br)
	}()

	// Find the first chunk line; blank lines carry nothing and are
	// skipped. An oversized first line is a chunk (it gets result line
	// 0), not an unreadable stream. lb holds the line read last until a
	// chunk takes it; the reader then reads into a fresh one.
	lb := getBytes()
	defer func() { putBytes(lb) }()
	var line []byte
	var readErr error
	for {
		line, readErr = readBatchLine(br, lb)
		if len(bytes.TrimSpace(line)) > 0 || readErr != nil {
			break
		}
	}
	if len(bytes.TrimSpace(line)) == 0 && readErr != nil && !errors.Is(readErr, errChunkTooLarge) {
		if errors.Is(readErr, io.EOF) {
			writeError(w, http.StatusBadRequest, CodeEmptyBatch, "empty batch: no chunk lines in request body")
			return
		}
		writeError(w, http.StatusBadRequest, CodeBadRequest, "unreadable batch stream: "+readErr.Error())
		return
	}

	w.Header().Set("Content-Type", NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// The pipeline: the main loop splits lines and spawns one goroutine
	// per chunk; the writer goroutine emits results strictly in input
	// order, flushing whenever the head result is not ready yet so slow
	// chunks do not gate the results of earlier ones reaching the client.
	// The pending buffer is the in-flight window — when the writer falls
	// behind (client backpressure) or the chunks ahead are still being
	// protected or committed, the main loop stops reading, which pushes
	// the backpressure to the sender.
	pending := make(chan *batchSlot, batchWindow)
	done := make(chan struct{})
	cw := s.newCommitWindow()
	defer cw.close()
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
		for {
			var sl *batchSlot
			var open bool
			select {
			case sl, open = <-pending:
			default:
				// Nothing else is in flight: what is buffered is all this
				// client gets until it sends more (a lock-step sender waits
				// for exactly these lines).
				flush()
				sl, open = <-pending
			}
			if !open {
				return
			}
			var res BatchResult
			select {
			case res = <-sl.res:
			default:
				// The head result is still computing: push what is
				// buffered to the client before blocking, so finished
				// chunks are visible while stragglers grind.
				flush()
				cw.setAwaited(sl.idx)
				res = <-sl.res
				cw.setAwaited(-1)
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
	budget := byteBudget{free: batchInflightBytes, freed: make(chan struct{}, 1)}
	// send hands one slot to the writer, respecting the in-flight
	// window; false means the client is gone. While it waits for the
	// window to move, the reader has nothing to dispatch.
	send := func(sl *batchSlot) bool {
		select {
		case pending <- sl:
			return true
		default:
		}
		cw.setStalled(true)
		defer cw.setStalled(false)
		select {
		case pending <- sl:
			return true
		case <-ctx.Done():
			return false
		}
	}
	// emit hands one pre-resolved result line to the writer.
	emit := func(res BatchResult) bool {
		sl := &batchSlot{res: make(chan BatchResult, 1), idx: res.Index}
		sl.res <- res
		return send(sl)
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
			if !budget.acquire(ctx, cw, len(line)) {
				break loop
			}
			sl := &batchSlot{res: make(chan BatchResult, 1), cw: cw, idx: idx}
			if !send(sl) {
				break loop
			}
			cw.dispatch()
			go func(lb *[]byte, n int) {
				sl.res <- s.processBatchChunk(ctx, sl, lb, hdrUser)
				budget.release(n)
			}(lb, len(line))
			lb = getBytes()
			idx++
		}
		if readErr != nil {
			if !errors.Is(readErr, io.EOF) {
				emit(batchError(idx, "", http.StatusBadRequest, CodeBadRequest,
					"batch stream aborted: "+readErr.Error()))
			}
			break
		}
		if lineBuffered(br) {
			line, readErr = readBatchLine(br, lb)
		} else {
			// The next line is still on the wire (or never coming): the
			// commit window need not wait for it.
			cw.setIdle(true)
			line, readErr = readBatchLine(br, lb)
			cw.setIdle(false)
		}
	}
	cw.setIdle(true)
	close(pending)
	<-done
}

// lineBuffered reports whether br holds a complete line, so that reading
// it cannot block on the connection.
func lineBuffered(br *bufio.Reader) bool {
	buffered, _ := br.Peek(br.Buffered())
	return bytes.IndexByte(buffered, '\n') >= 0
}

// byteBudget is the byte side of a batch's in-flight window: the reader
// charges every line it dispatches and stalls once the budget is spent,
// and a chunk hands its line's bytes back with its result. One reader
// acquires; any chunk releases.
type byteBudget struct {
	mu    sync.Mutex
	free  int
	freed chan struct{} // buffered(1): a release happened since the last wait
}

func (b *byteBudget) take(n int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.free < n {
		return false
	}
	b.free -= n
	return true
}

// acquire charges n bytes, waiting for releases while the budget is
// short; the reader has nothing to dispatch meanwhile. False means the
// context ended first.
func (b *byteBudget) acquire(ctx context.Context, cw *commitWindow, n int) bool {
	if b.take(n) {
		return true
	}
	cw.setIdle(true)
	defer cw.setIdle(false)
	for !b.take(n) {
		select {
		case <-b.freed:
		case <-ctx.Done():
			return false
		}
	}
	return true
}

func (b *byteBudget) release(n int) {
	b.mu.Lock()
	b.free += n
	b.mu.Unlock()
	select {
	case b.freed <- struct{}{}:
	default:
	}
}

// ---------------------------------------------------------------------------
// The commit window.

// batchSlot is one chunk's place in its batch's in-flight window: where
// its result line goes, and — for a chunk that is executed — the commit
// window of its request and its position in the stream.
type batchSlot struct {
	res chan BatchResult // buffered(1): the chunk's result line
	cw  *commitWindow
	idx int
}

// commitWindow is the request-scoped group commit of one batch upload.
// Workers still run Protect on the pool, but a synchronous chunk's
// staged commit is handed to the window (submit) instead of being synced
// by its worker; the window's committer goroutine appends the records of
// every chunk it holds as ONE store.Append — one frame, one sync — and
// only then applies each commit and delivers each outcome (commitGroup),
// so the writer releases the result lines after the covering sync, still
// in input order.
//
// The window is held open to fill and closes — commits what it holds —
// on the first of:
//
//   - it holds batchWindow chunks or maxGroupBytes of records;
//   - it cannot grow: every dispatched chunk that can still reach it has
//     (upstream == 0), and the reader will not dispatch another before
//     the window's results are out — it is waiting for a line that is
//     not buffered or has seen the stream end (idle), or it is waiting
//     for an in-flight slot (stalled) while the writer waits for the
//     result of a chunk the window holds (awaited == first; results go
//     out in input order, so no slot frees before that chunk commits);
//   - a chunk arrives that cost more to protect than the last durable
//     append took: a sync shared with that chunk's neighbours would save
//     less than waiting for their protection costs, so a slow engine's
//     chunk is never held behind one;
//   - holding is off: the batch contains a replay (see replayed), or the
//     server is closing.
//
// Every rule is evaluated on events, never on a timer: with a clock that
// does not advance the third simply never fires, and the second is
// always reached, because every upstream chunk settles — it reaches the
// window, fails, or turns out not to need it — and a reader that cannot
// dispatch is idle or stalled. A batch of one therefore commits the
// moment its chunk is protected, as a single upload does; coalescing
// across requests stays the WAL flusher's job.
//
// upstream is an exact tally. The reader counts a chunk in when it
// dispatches it; exactly one of these counts it out: a rejected line, a
// replay, a key reuse, an async chunk or a shed one (settle, from the
// chunk's own goroutine, before it blocks on anything); a failed
// protection (settle, from the worker); or its arrival (submit).
//
// The window outlives no request: the handler closes it once every
// result line is written, and a chunk that is still on the pool then
// (its request was cancelled) finds submit refused and commits as a
// group of one on its worker.
type commitWindow struct {
	s *Server

	mu       sync.Mutex
	upstream int
	idle     bool // the reader waits for the wire, or has finished
	stalled  bool // the reader waits for an in-flight slot
	awaited  int  // stream index of the result the writer waits for; -1: none
	closed   bool
	// eager is set by a chunk that outweighs a sync (the third rule) and
	// cleared with the group it closes; unheld is for good.
	eager  bool
	unheld bool
	// group is what the window holds, recs the concatenation of its
	// records, bytes their payload size and first the lowest stream index
	// among its chunks.
	group []*uploadJob
	recs  []store.Record
	bytes int
	first int

	kick chan struct{} // buffered(1): something the committer decides on changed
	done chan struct{} // closed when the committer has exited
}

func (s *Server) newCommitWindow() *commitWindow {
	cw := &commitWindow{s: s, awaited: -1, kick: make(chan struct{}, 1), done: make(chan struct{})}
	go cw.run()
	return cw
}

// note applies one change to what the committer decides on and wakes it
// if the window should now close.
func (cw *commitWindow) note(change func()) {
	cw.mu.Lock()
	change()
	wake := cw.ripe()
	cw.mu.Unlock()
	if wake {
		cw.wake()
	}
}

func (cw *commitWindow) wake() {
	select {
	case cw.kick <- struct{}{}:
	default:
	}
}

// ripe reports whether the window should commit what it holds now (the
// rules in the type comment). Callers hold mu.
func (cw *commitWindow) ripe() bool {
	if len(cw.group) == 0 {
		return false
	}
	full := len(cw.group) >= batchWindow || cw.bytes >= maxGroupBytes
	sealed := cw.upstream == 0 && (cw.idle || cw.stalled && cw.awaited == cw.first)
	return full || sealed || cw.eager || cw.unheld || cw.closed || cw.s.closed.Load()
}

// dispatch counts one chunk in: the reader is about to start it.
func (cw *commitWindow) dispatch() { cw.note(func() { cw.upstream++ }) }

// settle counts one chunk out: it will not reach the window.
func (cw *commitWindow) settle() { cw.note(func() { cw.upstream-- }) }

// replayed counts out a chunk that turned out to be a retry, and stops
// the window holding anything back from then on: a replay may wait for
// the commit of an original that is parked in this window or in another
// request's, and a window that held its group for the sake of a chunk
// that waits on another window could wait in a circle. (Every other
// settled chunk delivers its result without waiting on a commit.)
func (cw *commitWindow) replayed() { cw.note(func() { cw.upstream--; cw.unheld = true }) }

// setIdle records whether the reader is waiting for the wire.
func (cw *commitWindow) setIdle(idle bool) { cw.note(func() { cw.idle = idle }) }

// setStalled records whether the reader is waiting for an in-flight slot.
func (cw *commitWindow) setStalled(stalled bool) { cw.note(func() { cw.stalled = stalled }) }

// setAwaited records the stream index of the result the writer is
// waiting for, -1 when it is not waiting.
func (cw *commitWindow) setAwaited(idx int) { cw.note(func() { cw.awaited = idx }) }

// submit adds a staged commit (the chunk at stream index idx) to the
// group; the committer will make it durable, apply it and deliver the
// outcome. False means the window is closed — its request has finished
// — and the caller commits the job itself.
func (cw *commitWindow) submit(j *uploadJob, idx int) (taken bool) {
	cw.note(func() {
		if cw.closed {
			return
		}
		taken = true
		cw.upstream--
		cw.s.parked.Add(1)
		if len(cw.group) == 0 || idx < cw.first {
			cw.first = idx
		}
		cw.group = append(cw.group, j)
		cw.recs = append(cw.recs, j.recs...)
		for _, r := range j.recs {
			cw.bytes += len(r.Payload)
		}
		if j.cost > time.Duration(cw.s.lastAppend.Load()) {
			cw.eager = true
		}
	})
	return taken
}

// take returns the group to commit now, nil to keep holding; exit
// reports a closed, empty window. The window goes on filling the spare
// buffers, which the committer hands back emptied from its last group.
func (cw *commitWindow) take(spareGroup []*uploadJob, spareRecs []store.Record) (group []*uploadJob, recs []store.Record, exit bool) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if !cw.ripe() {
		return nil, nil, cw.closed && len(cw.group) == 0
	}
	group, recs = cw.group, cw.recs
	cw.group, cw.recs = spareGroup, spareRecs
	cw.bytes, cw.eager = 0, false
	return group, recs, false
}

// run is the committer: one goroutine per batch request, so the groups
// of a batch commit one after the other, in arrival order.
func (cw *commitWindow) run() {
	defer close(cw.done)
	var spareGroup []*uploadJob
	var spareRecs []store.Record
	for range cw.kick {
		for {
			group, recs, exit := cw.take(spareGroup, spareRecs)
			if exit {
				return
			}
			if group == nil {
				break
			}
			cw.s.commitGroup(group, recs)
			cw.s.parked.Add(-len(group))
			// Reuse the buffers, dropping what they reference.
			clear(group)
			clear(recs)
			spareGroup, spareRecs = group[:0], recs[:0]
		}
	}
}

// close ends the window once its request has written every result line:
// whatever it still holds (chunks of a cancelled request) is committed,
// later arrivals are refused, and the committer has exited on return.
func (cw *commitWindow) close() {
	cw.mu.Lock()
	cw.closed = true
	cw.mu.Unlock()
	cw.wake()
	<-cw.done
}

// errChunkTooLarge marks a single over-limit line: the reader resyncs
// at the next newline, so the chunk is rejected individually instead of
// aborting the whole stream.
var errChunkTooLarge = errors.New("chunk line over the size limit")

// readBatchLine reads one NDJSON line into *lb, replacing what it held,
// and bounds its size; the line it returns is *lb. io.EOF after the
// final line is the normal termination; errChunkTooLarge rejects just
// this line (already drained to its delimiter); any other error is
// terminal for the stream. The returned line may hold content alongside
// io.EOF (final line without a trailing newline).
func readBatchLine(br *bufio.Reader, lb *[]byte) ([]byte, error) {
	buf := (*lb)[:0]
	defer func() { *lb = buf }()
	for {
		part, err := br.ReadSlice('\n')
		buf = append(buf, part...)
		if len(buf) > maxBatchLineBytes {
			// Drain the remainder of the oversized line so the stream
			// can resync at the next delimiter.
			for errors.Is(err, bufio.ErrBufferFull) {
				_, err = br.ReadSlice('\n')
			}
			buf = buf[:0]
			if err == nil || errors.Is(err, io.EOF) {
				return nil, errChunkTooLarge
			}
			return nil, err
		}
		if err == nil {
			buf = buf[:len(buf)-1] // strip the delimiter
			return buf, nil
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

// processBatchChunk validates and executes the chunk line *lb holds in
// slot sl. The line goes back to the pool as soon as it is parsed:
// both parsers copy what they keep out of it. The chunk counts in its
// window's upstream tally on entry; a line rejected here settles it, an
// accepted one passes it on to executeChunk.
func (s *Server) processBatchChunk(ctx context.Context, sl *batchSlot, lb *[]byte, hdrUser string) BatchResult {
	idx := sl.idx
	rejected := true
	defer func() {
		if rejected {
			sl.cw.settle()
		}
	}()
	c, ok := parseBatchChunkFast(*lb)
	var err error
	if !ok {
		// Non-canonical line (escapes, unknown fields, reordered
		// nesting, garbage): the generic decoder is the arbiter, with
		// its exact semantics and error text.
		c = BatchChunk{}
		err = json.Unmarshal(*lb, &c)
	}
	putBytes(lb)
	if err != nil {
		return batchError(idx, "", http.StatusBadRequest, CodeBadChunk, "undecodable chunk: "+err.Error())
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
	// The records were parsed for this chunk alone: the trace owns them.
	t := trace.Trace{User: c.User, Records: c.Records}
	t.SortInPlace()
	if err := t.Validate(); err != nil {
		return batchError(idx, c.User, http.StatusBadRequest, CodeInvalidTrace, "invalid trace: "+err.Error())
	}
	if len(c.Key) > maxIdempotencyKeyLen {
		return batchError(idx, c.User, http.StatusBadRequest, CodeKeyTooLong,
			"idempotency key exceeds "+strconv.Itoa(maxIdempotencyKeyLen)+" bytes")
	}
	rejected = false
	res := s.executeChunk(ctx, t, c.Key, c.Async, sl)
	res.Index, res.User = idx, c.User
	return res
}

// parseBatchChunkFast parses the canonical batch line shape —
// {"user":"…","records":[…],"key":"…","async":bool} in any order with
// escape-free strings — in a single pass, without the reflective
// decoder's double document scan. This is the wire format the typed
// client emits, i.e. the hot path; anything else (escaped strings,
// non-UTF-8, unknown or repeated fields, nulls) reports ok=false and the
// caller falls back to encoding/json, whose semantics the fast path
// mirrors exactly (pinned by FuzzUploadV2's cross-check).
func parseBatchChunkFast(line []byte) (BatchChunk, bool) {
	var c BatchChunk
	var seen uint
	sc := trace.NewScanner(line)
	for {
		key, ok := sc.Field(&seen, "user", "records", "key", "async")
		switch key {
		case "":
			return c, ok && sc.End()
		case "user":
			c.User, ok = sc.ParseString()
		case "records":
			c.Records, ok = sc.ParseRecords()
		case "key":
			c.Key, ok = sc.ParseString()
		case "async":
			c.Async, ok = sc.ParseBool()
		}
		if !ok {
			return c, false
		}
	}
}

// appendLine appends the chunk as one NDJSON line, exactly as
// json.Encoder writes a BatchChunk.
func (c BatchChunk) appendLine(b []byte) ([]byte, error) {
	b, err := trace.AppendTraceHead(b, c.User, c.Records)
	if err != nil {
		return nil, err
	}
	if c.Key != "" {
		b = append(b, `,"key":`...)
		b = trace.AppendJSONString(b, c.Key)
	}
	if c.Async {
		b = append(b, `,"async":true`...)
	}
	return append(b, "}\n"...), nil
}
