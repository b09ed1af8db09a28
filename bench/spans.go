package main

import (
	"math"
	"sort"
	"sync"
	"time"

	"mood/internal/clock"
)

// The span recorder of the traced run. Spans are recorded from the
// benchmark's own wrappers around the interfaces the system is composed
// from (see seams.go) — nothing inside the program is instrumented.
// They stay in memory; -trace-out writes them at exit.

// layerID names the seam a span was recorded at. A span's layer decides
// which module its self time is booked to (see layers.go).
type layerID uint8

const (
	layerClientOp   layerID = iota // one closed-loop op as the client sees it (root)
	layerClientHTTP                // the client's HTTP exchange: RoundTrip to body EOF
	layerClientBody                // the client producing a request body, or consuming a response body between blocking reads
	layerRouter                    // cluster.Router handler
	layerRouterHTTP                // the router's exchange with one node
	layerRouterBody                // the router consuming a node's response body between blocking reads
	layerNode                      // service.Server handler
	layerProtect                   // service.Protector.Protect
	layerLPPM                      // lppm.Mechanism.Obfuscate (base mechanisms)
	layerIdentify                  // attack.Attack.Identify
	layerRetrain                   // service.Retrainer.Retrain as a whole
	layerTrain                     // attack.TrainAll inside a retrain
	layerAudit                     // service.BatchAuditor.ReIdentifiesBatch
	layerAppend                    // store.Store.Append — aggregate-only: group commit merges causes
	layerLoad                      // store.Store.Load (recovery replay)
	layerCompact                   // store.Store.Mark + Compact of one checkpoint
	layerSync                      // store.File.Sync
	layerStall                     // an op waiting at the harness's stall gate for a foreground checkpoint
	numLayers
)

var layerNames = [numLayers]string{
	"client.op", "client.http", "client.body", "router", "router.http", "router.body", "node",
	"core.protect", "lppm", "attack.identify", "service.retrain",
	"attack.train", "attack.audit", "store.append", "store.load",
	"store.compact", "fs.sync", "store.stall",
}

func (l layerID) String() string { return layerNames[l] }

// spanID indexes tracer.spans; noSpan marks a root or an unlinked span.
type spanID int32

const noSpan spanID = -1

// span is one recorded interval. Start and End are nanoseconds since
// the tracer's epoch on the injected clock. The struct is pointer-free
// on purpose: a traced run holds a million of them and the collector
// must not have to walk them.
type span struct {
	Layer  layerID
	Detail uint8  // index into tracer.details: mechanism, attack or node name
	Op     uint32 // 0 = not attributable to one timed op
	Parent spanID
	Start  int64
	End    int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans and carries the registries that link spans
// across the places a call chain loses its context: HTTP hops (linked
// by the bench-stamped header), the upload queue into the engine
// (linked by the chunk's user and first timestamp) and admin ops
// (one in flight at a time).
type tracer struct {
	clk   clock.Clock
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	details []string // interned span details; index 0 is ""

	linkMu   sync.Mutex
	chunkOp  map[chunkKey]uint32 // (user, first ts) → op that uploaded it
	nodeSpan map[uint32]spanID   // op → node handler span now serving it
	adminOp  uint32              // the admin (retrain) op in flight
}

// chunkKey identifies an uploaded chunk across the queue into the
// engine, where no request context survives.
type chunkKey struct {
	user  string
	first int64
}

func newTracer(clk clock.Clock) *tracer {
	return &tracer{
		clk:      clk,
		epoch:    clk.Now(),
		details:  []string{""},
		chunkOp:  make(map[chunkKey]uint32),
		nodeSpan: make(map[uint32]spanID),
	}
}

func (t *tracer) now() int64 { return int64(t.clk.Since(t.epoch)) }

// detail interns a span detail string; wrappers call it once, at
// construction, not per span.
func (t *tracer) detail(name string) uint8 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, d := range t.details {
		if d == name {
			return uint8(i)
		}
	}
	t.details = append(t.details, name)
	return uint8(len(t.details) - 1)
}

// begin opens a span now and returns its handle.
func (t *tracer) begin(layer layerID, detail uint8, op uint32, parent spanID) spanID {
	return t.beginAt(layer, detail, op, parent, t.now())
}

// beginAt opens a span that started at the given reading of now.
func (t *tracer) beginAt(layer layerID, detail uint8, op uint32, parent spanID, start int64) spanID {
	t.mu.Lock()
	id := spanID(len(t.spans))
	t.spans = append(t.spans, span{Layer: layer, Detail: detail, Op: op, Parent: parent, Start: start, End: start})
	t.mu.Unlock()
	return id
}

// end closes a span now.
func (t *tracer) end(id spanID) { t.endAt(id, t.now()) }

// endAt closes a span that ended at the given reading of now.
func (t *tracer) endAt(id spanID, end int64) {
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// registerChunk declares that op is about to upload the chunk.
func (t *tracer) registerChunk(user string, first int64, op uint32) {
	t.linkMu.Lock()
	t.chunkOp[chunkKey{user, first}] = op
	t.linkMu.Unlock()
}

// chunkParent resolves an engine-side chunk to its op and the node
// handler span serving that op; (0, noSpan) when the link is missing.
func (t *tracer) chunkParent(user string, first int64) (uint32, spanID) {
	t.linkMu.Lock()
	defer t.linkMu.Unlock()
	op, ok := t.chunkOp[chunkKey{user, first}]
	if !ok {
		return 0, noSpan
	}
	if id, ok := t.nodeSpan[op]; ok {
		return op, id
	}
	return op, noSpan
}

func (t *tracer) setNodeSpan(op uint32, id spanID) {
	t.linkMu.Lock()
	t.nodeSpan[op] = id
	t.linkMu.Unlock()
}

func (t *tracer) setAdminOp(op uint32) {
	t.linkMu.Lock()
	t.adminOp = op
	t.linkMu.Unlock()
}

// adminParent is the node span of the admin op in flight.
func (t *tracer) adminParent() (uint32, spanID) {
	t.linkMu.Lock()
	defer t.linkMu.Unlock()
	if id, ok := t.nodeSpan[t.adminOp]; ok {
		return t.adminOp, id
	}
	return t.adminOp, noSpan
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// ---------------------------------------------------------------------------
// Self-time arithmetic.

// interval is a half-open [lo, hi) stretch of the tracer's timeline.
type interval struct{ lo, hi int64 }

// childIntervals lists, for every span, the intervals of the spans it
// caused. A span is recorded after the span that caused it, so a parent
// always has the smaller id.
func childIntervals(spans []span) [][]interval {
	children := make([][]interval, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < i {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	return children
}

// selfTimes returns every span's self time: its duration minus the part
// of that interval its child spans cover. Children that run in parallel
// (a scatter-gather's node calls) therefore cost their parent the union
// of their intervals — the slowest of them when they start together —
// not their sum, and children clipped to the parent cannot cost it more
// than its own duration.
func selfTimes(spans []span, children [][]interval) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		for _, iv := range selfIntervals(s.Start, s.End, children[i]) {
			self[i] += iv.hi - iv.lo
		}
	}
	return self
}

// opAccount is the per-op layer breakdown of a traced phase: wall sums
// the client-observed durations of the ops, and attributed books every
// nanosecond of that wall time to the layer of the span that was doing
// the work (see attribute). By construction the layers sum to the wall
// time; what cannot be booked to a layer of this repository — the HTTP
// exchanges' own time: net/http machinery, loopback, waiting for the
// peer's bytes — is the unattributed residue.
type opAccount struct {
	ops        int
	wallNs     int64
	attributed [numLayers]float64 // layer → ns of client wall time
	storeNs    float64            // the part of attributed[layerNode] spent inside store.Append
	orphanNs   int64              // spans with an op but no resolvable parent
}

// piece is a stretch of one op's timeline during which a span of the
// given layer was running with no child span open under it.
type piece struct {
	lo, hi int64
	layer  layerID
}

// attribute books the stretch [lo, hi) of one op's wall time to layers.
// pieces are the self intervals of the op's spans. Where exactly one
// span is at work the stretch is its layer's; where several are — the
// node calls of a scatter-gather, the chunks of a batch on several
// workers — the stretch is split equally among them, so parallel work
// costs the op its duration once, not once per worker, and the layers
// always sum to hi-lo.
func attribute(lo, hi int64, pieces []piece, out *[numLayers]float64) {
	type event struct {
		at    int64
		layer layerID
		open  bool
	}
	events := make([]event, 0, 2*len(pieces))
	for _, p := range pieces {
		if p.lo < lo {
			p.lo = lo
		}
		if p.hi > hi {
			p.hi = hi
		}
		if p.hi > p.lo {
			events = append(events, event{p.lo, p.layer, true}, event{p.hi, p.layer, false})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
	var active [numLayers]int
	running, at := 0, lo
	for _, ev := range events {
		if running > 0 && ev.at > at {
			share := float64(ev.at-at) / float64(running)
			for l, n := range active {
				if n > 0 {
					out[l] += share * float64(n)
				}
			}
		}
		at = ev.at
		if ev.open {
			active[ev.layer]++
			running++
		} else {
			active[ev.layer]--
			running--
		}
	}
}

// selfIntervals returns the parts of [lo, hi) the intervals leave
// uncovered, in order.
func selfIntervals(lo, hi int64, children []interval) []interval {
	s := append([]interval(nil), children...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var out []interval
	at := lo
	for _, c := range s {
		if c.lo > at {
			if c.lo >= hi {
				break
			}
			out = append(out, interval{at, c.lo})
		}
		if c.hi > at {
			at = c.hi
		}
	}
	if at < hi {
		out = append(out, interval{at, hi})
	}
	return out
}

// account builds the breakdown over every span that carries an op.
func account(spans []span, children [][]interval) opAccount {
	var acc opAccount
	// root[i]: the client.op span that span i hangs (transitively) under;
	// noSpan when the chain of parents does not reach one.
	const unknown spanID = -2
	root := make([]spanID, len(spans))
	for i := range root {
		root[i] = unknown
	}
	var resolve func(i int) spanID
	resolve = func(i int) spanID {
		if root[i] != unknown {
			return root[i]
		}
		s := spans[i]
		r := noSpan
		switch {
		case s.Layer == layerClientOp:
			r = spanID(i)
		case s.Parent >= 0 && int(s.Parent) < i:
			// A span is recorded after the span that caused it, so parents
			// have smaller ids and the recursion ends.
			r = resolve(int(s.Parent))
		}
		root[i] = r
		return r
	}
	pieces := make(map[spanID][]piece) // root → self intervals of every span under it
	for i, s := range spans {
		if s.Op == 0 {
			continue // aggregate-only seams (store, fs) are reported beside the ops
		}
		r := resolve(i)
		if r == noSpan {
			acc.orphanNs += s.dur()
			continue
		}
		for _, iv := range selfIntervals(s.Start, s.End, children[i]) {
			pieces[r] = append(pieces[r], piece{iv.lo, iv.hi, s.Layer})
		}
	}
	for r, ps := range pieces {
		acc.ops++
		acc.wallNs += spans[r].dur()
		attribute(spans[r].Start, spans[r].End, ps, &acc.attributed)
	}
	acc.storeNs = math.Min(float64(storeInsideNodes(spans, children)), acc.attributed[layerNode])
	return acc
}

// unattributedShare is the share of client wall time no layer of the
// repository accounts for: the HTTP exchange spans' own time plus every
// span that could not be linked to its op.
func (a opAccount) unattributedShare() float64 {
	if a.wallNs == 0 {
		return 0
	}
	return (a.attributed[layerClientHTTP] + a.attributed[layerRouterHTTP] + float64(a.orphanNs)) / float64(a.wallNs)
}
