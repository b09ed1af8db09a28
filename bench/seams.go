package main

import (
	"context"
	"io"
	"io/fs"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mood/internal/attack"
	"mood/internal/core"
	"mood/internal/lppm"
	"mood/internal/mathx"
	"mood/internal/service"
	"mood/internal/store"
	"mood/internal/trace"
)

// The traced run's wrappers. Each one implements an interface the
// system is already composed from and records a span around the call
// it forwards; none of them is installed in the untraced run, so the
// end-to-end metrics never pay for them.

// spanHeader carries "<op>.<span>" across an HTTP hop: the op the
// request belongs to and the caller-side span that caused it.
const spanHeader = "X-Bench-Span"

func formatSpanHeader(op uint32, id spanID) string {
	return strconv.FormatUint(uint64(op), 10) + "." + strconv.FormatInt(int64(id), 10)
}

func parseSpanHeader(v string) (uint32, spanID, bool) {
	dot := strings.IndexByte(v, '.')
	if dot < 0 {
		return 0, noSpan, false
	}
	op, err1 := strconv.ParseUint(v[:dot], 10, 32)
	id, err2 := strconv.ParseInt(v[dot+1:], 10, 32)
	if err1 != nil || err2 != nil || op == 0 {
		return 0, noSpan, false
	}
	return uint32(op), spanID(id), true
}

// ---------------------------------------------------------------------------
// HTTP seams.

// blockedReadNs separates a body Read that found bytes waiting (a copy
// out of a buffer, well under this) from one that waited for the peer.
const blockedReadNs = 10_000

// exchangeBody ends an exchange span when the response body has been
// consumed (EOF) or closed, whichever comes first: the exchange is over
// when its last byte has been read, not when the headers arrived.
//
// A streamed body is decoded while it arrives, so the exchange interval
// mixes two costs: waiting for the peer's bytes and the consumer's own
// decoding between reads. The body splits them: the stretches between
// blocking Reads are recorded as child spans of the exchange on the
// consumer's body layer; what is left of the exchange is the waiting.
type exchangeBody struct {
	io.ReadCloser
	tr      *tracer
	id      spanID // the exchange span
	op      uint32
	layer   layerID // the consumer's body layer
	consume spanID  // the open consumer stretch, noSpan while a Read blocks
	once    sync.Once
}

func (b *exchangeBody) Read(p []byte) (int, error) {
	t0 := b.tr.now()
	n, err := b.ReadCloser.Read(p)
	t1 := b.tr.now()
	if b.consume != noSpan && t1-t0 >= blockedReadNs {
		b.tr.endAt(b.consume, t0)
		b.consume = noSpan
	}
	if err != nil {
		b.finish()
	} else if b.consume == noSpan {
		b.consume = b.tr.beginAt(b.layer, 0, b.op, b.id, t1)
	}
	return n, err
}

func (b *exchangeBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *exchangeBody) finish() {
	b.once.Do(func() {
		if b.consume != noSpan {
			b.tr.end(b.consume)
			b.consume = noSpan
		}
		b.tr.end(b.id)
	})
}

// producedBody is the request body of a client's exchange. The client
// encodes its batch into a pipe while the transport sends it, so the
// time the transport spends blocked in Read is the client's encoder at
// work: it is recorded, like the consumer's stretches of a response
// body, as spans of the exchange on the client's body layer. (The
// router's request body is the inbound one; blocked there, it waits for
// the client, which is not work of the router's, so it is not wrapped.)
type producedBody struct {
	io.ReadCloser
	tr    *tracer
	id    spanID // the exchange span
	op    uint32
	layer layerID
}

func (b *producedBody) Read(p []byte) (int, error) {
	t0 := b.tr.now()
	n, err := b.ReadCloser.Read(p)
	if t1 := b.tr.now(); t1-t0 >= blockedReadNs {
		b.tr.endAt(b.tr.beginAt(b.layer, 0, b.op, b.id, t0), t1)
	}
	return n, err
}

// hop names the layers of one HTTP hop's spans.
type hop struct {
	exchange, body layerID
	// producesBody: the request body is encoded by the caller while it is
	// sent (see producedBody), not relayed from upstream.
	producesBody bool
}

var (
	clientHop = hop{exchange: layerClientHTTP, body: layerClientBody, producesBody: true}
	routerHop = hop{exchange: layerRouterHTTP, body: layerRouterBody}
)

// exchange runs one traced round trip: it stamps the outgoing request
// with the op and the exchange span, and keeps the span open until the
// response body is drained.
func exchange(tr *tracer, next http.RoundTripper, req *http.Request, h hop, op uint32, parent spanID) (*http.Response, error) {
	id := tr.begin(h.exchange, 0, op, parent)
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, formatSpanHeader(op, id))
	if h.producesBody && out.Body != nil && out.Body != http.NoBody {
		out.Body = &producedBody{ReadCloser: out.Body, tr: tr, id: id, op: op, layer: h.body}
	}
	resp, err := next.RoundTrip(out)
	if err != nil {
		tr.end(id)
		return nil, err
	}
	resp.Body = &exchangeBody{ReadCloser: resp.Body, tr: tr, id: id, op: op, layer: h.body, consume: noSpan}
	return resp, nil
}

// clientTransport is the http.RoundTripper of one closed-loop client.
// The client has one op in flight at a time, so "the current op" is a
// field, not a lookup.
type clientTransport struct {
	tr   *tracer
	next http.RoundTripper
	op   atomic.Uint32 // 0 outside timed ops
	root atomic.Int32  // the op's client.op span
}

func (c *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := c.op.Load()
	if op == 0 {
		return c.next.RoundTrip(req)
	}
	return exchange(c.tr, c.next, req, clientHop, op, spanID(c.root.Load()))
}

// hopKey carries the router handler's (op, span) to the router's own
// transport through the request context the router derives its
// outgoing requests from.
type hopKey struct{}

type hopValue struct {
	op   uint32
	span spanID
}

// routerTransport is the http.RoundTripper of cluster.Router's client.
type routerTransport struct {
	tr   *tracer
	next http.RoundTripper
}

func (rt *routerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	hv, ok := req.Context().Value(hopKey{}).(hopValue)
	if !ok {
		return rt.next.RoundTrip(req)
	}
	return exchange(rt.tr, rt.next, req, routerHop, hv.op, hv.span)
}

// tracedHandler wraps the node and router http.Handlers.
type tracedHandler struct {
	tr     *tracer
	layer  layerID
	detail uint8
	next   http.Handler
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op, parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
	if !ok {
		h.next.ServeHTTP(w, r)
		return
	}
	id := h.tr.begin(h.layer, h.detail, op, parent)
	switch h.layer {
	case layerNode:
		h.tr.setNodeSpan(op, id)
	case layerRouter:
		r = r.WithContext(context.WithValue(r.Context(), hopKey{}, hopValue{op: op, span: id}))
	}
	h.next.ServeHTTP(w, r)
	h.tr.end(id)
}

// ---------------------------------------------------------------------------
// Engine seams.

// protectObserver collects what the Protector seam sees, across engine
// generations: the engine's own effort and utility figures for timed
// chunks, and the owner of every fragment ever published (the traced
// run's re-identification check needs the owners the wire never shows).
type protectObserver struct {
	mu sync.Mutex
	// timed-op figures
	protects    int
	candidates  int
	pieces      int
	records     int
	lostRecords int
	distortion  float64 // summed over pieces
	// owners maps fragmentHash(records) → uploader, for every piece that
	// ever left the engine; fineLabels are the engine-side pseudonyms of
	// fine-grained pieces (they recur, so the dataset merges them).
	owners     map[uint64]string
	fineLabels map[string]bool
}

func (o *protectObserver) observe(timed bool, res core.Result) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, p := range res.Pieces {
		o.owners[fragmentHash(p.Trace.Records)] = res.User
		if p.Trace.User != res.User {
			o.fineLabels[p.Trace.User] = true
		}
	}
	if !timed {
		return
	}
	o.protects++
	o.candidates += res.Stats.Candidates
	o.pieces += len(res.Pieces)
	o.records += res.TotalRecords
	o.lostRecords += res.LostRecords
	for _, p := range res.Pieces {
		o.distortion += p.Distortion
	}
}

// engineSlot is one core.Engine whose mechanisms and attacks are
// wrapped by tracers bound to the slot. The engine gives its callees no
// context, so the slot is how an Obfuscate or Identify call learns
// which Protect caused it: one Protect owns the slot at a time.
type engineSlot struct {
	op     uint32
	parent spanID
	engine *core.Engine
}

// tracedProtector is the service.Protector of the traced run.
type tracedProtector struct {
	tr   *tracer
	obs  *protectObserver
	mk   func() *engineSlot
	mu   sync.Mutex
	free []*engineSlot
}

// newTracedProtector builds a protector over the trained parts. The
// engine configuration mirrors mood.NewPipeline's defaults (brute-force
// search, default utility, δ and chunk); the smoke test holds the two
// to the same dataset digest.
func newTracedProtector(tr *tracer, obs *protectObserver, seed uint64, portfolio []lppm.Mechanism, atks attack.Set) *tracedProtector {
	p := &tracedProtector{tr: tr, obs: obs}
	p.mk = func() *engineSlot {
		s := &engineSlot{}
		mechs := make([]lppm.Mechanism, len(portfolio))
		for i, m := range portfolio {
			mechs[i] = &tracedMech{inner: m, tr: tr, slot: s, detail: tr.detail(m.Name())}
		}
		set := make(attack.Set, len(atks))
		for i, a := range atks {
			set[i] = &tracedAttack{inner: a, tr: tr, slot: s, detail: tr.detail(a.Name())}
		}
		s.engine = &core.Engine{LPPMs: mechs, Attacks: set, Seed: seed}
		return s
	}
	return p
}

func (p *tracedProtector) Protect(t trace.Trace) (core.Result, error) {
	p.mu.Lock()
	var s *engineSlot
	if n := len(p.free); n > 0 {
		s, p.free = p.free[n-1], p.free[:n-1]
	}
	p.mu.Unlock()
	if s == nil {
		s = p.mk()
	}

	op, node := p.tr.chunkParent(t.User, t.Start())
	s.op, s.parent = op, noSpan
	if op != 0 {
		s.parent = p.tr.begin(layerProtect, 0, op, node)
	}
	res, err := s.engine.Protect(t)
	if op != 0 {
		p.tr.end(s.parent)
	}
	if err == nil {
		p.obs.observe(op != 0, res)
	}

	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
	return res, err
}

type tracedMech struct {
	inner  lppm.Mechanism
	tr     *tracer
	slot   *engineSlot
	detail uint8
}

func (m *tracedMech) Name() string { return m.inner.Name() }

func (m *tracedMech) Obfuscate(rng *mathx.Rand, t trace.Trace) (trace.Trace, error) {
	if m.slot.op == 0 {
		return m.inner.Obfuscate(rng, t)
	}
	id := m.tr.begin(layerLPPM, m.detail, m.slot.op, m.slot.parent)
	out, err := m.inner.Obfuscate(rng, t)
	m.tr.end(id)
	return out, err
}

type tracedAttack struct {
	inner  attack.Attack
	tr     *tracer
	slot   *engineSlot
	detail uint8
}

func (a *tracedAttack) Name() string                         { return a.inner.Name() }
func (a *tracedAttack) Train(background []trace.Trace) error { return a.inner.Train(background) }

func (a *tracedAttack) Identify(t trace.Trace) attack.Verdict {
	if a.slot.op == 0 {
		return a.inner.Identify(t)
	}
	id := a.tr.begin(layerIdentify, a.detail, a.slot.op, a.slot.parent)
	v := a.inner.Identify(t)
	a.tr.end(id)
	return v
}

// tracedAuditor is the service.BatchAuditor of the traced run. It wraps
// the audit as one span around the unwrapped attack.Set: the batch
// kernels dispatch on the concrete attack types, so wrapping the
// attacks themselves would silently route the audit down the scalar
// path and the trace would measure a different program.
type tracedAuditor struct {
	tr      *tracer
	set     attack.Set
	audited *atomic.Int64
}

func (a *tracedAuditor) ReIdentifies(t trace.Trace, user string) (bool, string) {
	return a.set.ReIdentifies(t, user)
}

func (a *tracedAuditor) ReIdentifiesBatch(ts []trace.Trace, users []string) []attack.ReIdent {
	op, node := a.tr.adminParent()
	if op == 0 {
		return a.set.ReIdentifiesBatch(ts, users)
	}
	id := a.tr.begin(layerAudit, 0, op, node)
	out := a.set.ReIdentifiesBatch(ts, users)
	a.tr.end(id)
	a.audited.Add(int64(len(ts)))
	return out
}

// ---------------------------------------------------------------------------
// Store seams.

// storeCounters are the aggregate figures of the store and filesystem
// seams, counted only while a timed phase is open.
type storeCounters struct {
	timed           atomic.Bool
	appends         atomic.Int64
	payloadBytes    atomic.Int64 // record payload bytes handed to Append
	bytesWritten    atomic.Int64 // bytes the WAL wrote through store.FS
	checkpointBytes atomic.Int64 // snapshot bytes handed to Compact
}

// tracedStore wraps store.Store.
type tracedStore struct {
	store.Store
	tr      *tracer
	c       *storeCounters
	node    uint8  // span detail: the node this store belongs to
	replay  bool   // Load replays a log (a reboot), not an empty directory
	compact spanID // open between Mark and Compact (checkpoints are serialised)
}

func (s *tracedStore) Append(recs ...store.Record) error {
	if !s.c.timed.Load() {
		return s.Store.Append(recs...)
	}
	id := s.tr.begin(layerAppend, s.node, 0, noSpan)
	err := s.Store.Append(recs...)
	s.tr.end(id)
	s.c.appends.Add(1)
	for _, r := range recs {
		s.c.payloadBytes.Add(int64(len(r.Payload)))
	}
	return err
}

func (s *tracedStore) Load() ([]byte, []store.Record, error) {
	if !s.replay {
		return s.Store.Load()
	}
	id := s.tr.begin(layerLoad, s.node, 0, noSpan)
	snap, recs, err := s.Store.Load()
	s.tr.end(id)
	return snap, recs, err
}

// Mark and Compact bracket one checkpoint. A checkpoint never runs
// beside an op (ingest-echo-cluster's run between ops, behind the stall
// gate), so these spans are recorded whenever one happens: there, after
// the read workload's preload and at every clean close.
func (s *tracedStore) Mark() (store.Pos, error) {
	s.compact = s.tr.begin(layerCompact, s.node, 0, noSpan)
	return s.Store.Mark()
}

func (s *tracedStore) Compact(snapshot []byte, pos store.Pos) error {
	err := s.Store.Compact(snapshot, pos)
	if s.compact != noSpan {
		s.tr.end(s.compact)
		s.c.checkpointBytes.Add(int64(len(snapshot)))
		s.compact = noSpan
	}
	return err
}

// tracedFS wraps store.FS: it times every Sync, counts the bytes the
// log writes, and remembers how much of each file has been synced so a
// simulated power loss can discard the rest.
type tracedFS struct {
	store.FS
	tr *tracer
	c  *storeCounters

	mu    sync.Mutex
	files map[string]*fileExtent
}

// fileExtent is the written and the synced length of one file.
type fileExtent struct{ written, synced int64 }

func newTracedFS(inner store.FS, tr *tracer, c *storeCounters) *tracedFS {
	return &tracedFS{FS: inner, tr: tr, c: c, files: make(map[string]*fileExtent)}
}

func (f *tracedFS) OpenFile(name string, flag int, perm fs.FileMode) (store.File, error) {
	h, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	ext := &fileExtent{}
	if flag&os.O_TRUNC == 0 {
		if st, serr := os.Stat(name); serr == nil {
			// Bytes already on disk at open time were synced by whoever
			// wrote them (the WAL syncs a segment before reopening it).
			ext.written, ext.synced = st.Size(), st.Size()
		}
	}
	f.mu.Lock()
	f.files[name] = ext
	f.mu.Unlock()
	return &tracedFile{File: h, fs: f, ext: ext}, nil
}

func (f *tracedFS) Rename(oldname, newname string) error {
	err := f.FS.Rename(oldname, newname)
	if err == nil {
		f.mu.Lock()
		if ext, ok := f.files[oldname]; ok {
			f.files[newname] = ext
			delete(f.files, oldname)
		}
		f.mu.Unlock()
	}
	return err
}

func (f *tracedFS) Remove(name string) error {
	err := f.FS.Remove(name)
	if err == nil {
		f.mu.Lock()
		delete(f.files, name)
		f.mu.Unlock()
	}
	return err
}

// discardUnsynced cuts every file back to its synced length on the
// real filesystem: killing a process leaves the operating system's
// cache intact, so the crash drill itself must throw away what no
// fsync covered. Call it only after the fault layer above has been
// killed, when nothing can write any more.
func (f *tracedFS) discardUnsynced() (discarded int64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for name, ext := range f.files {
		if ext.written > ext.synced {
			if terr := store.OS().Truncate(name, ext.synced); terr != nil && err == nil {
				err = terr
			}
			discarded += ext.written - ext.synced
		}
	}
	return discarded, err
}

type tracedFile struct {
	store.File
	fs  *tracedFS
	ext *fileExtent
}

func (h *tracedFile) Write(p []byte) (int, error) {
	n, err := h.File.Write(p)
	h.fs.mu.Lock()
	h.ext.written += int64(n)
	h.fs.mu.Unlock()
	if h.fs.c.timed.Load() {
		h.fs.c.bytesWritten.Add(int64(n))
	}
	return n, err
}

func (h *tracedFile) Sync() error {
	h.fs.mu.Lock()
	upTo := h.ext.written
	h.fs.mu.Unlock()
	var err error
	if h.fs.c.timed.Load() {
		id := h.fs.tr.begin(layerSync, 0, 0, noSpan)
		err = h.File.Sync()
		h.fs.tr.end(id)
	} else {
		err = h.File.Sync()
	}
	if err == nil {
		h.fs.mu.Lock()
		if upTo > h.ext.synced {
			h.ext.synced = upTo
		}
		h.fs.mu.Unlock()
	}
	return err
}

var (
	_ service.Protector    = (*tracedProtector)(nil)
	_ service.BatchAuditor = (*tracedAuditor)(nil)
	_ store.Store          = (*tracedStore)(nil)
	_ store.FS             = (*tracedFS)(nil)
)
