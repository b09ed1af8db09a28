package main

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"

	"mood/internal/clock"
)

// The traced run: the same repetitions with the seam wrappers installed,
// folded into the per-layer metrics BENCHMARK.json names. Counts are
// reported per repetition, over whole cycles through the seed's input
// sets (every cycle does identical work), so a scheduling-independent
// count repeats exactly per seed however many cycles the box had time
// for.

// tracedSummary is what a traced run produces.
type tracedSummary struct {
	Untraced  []repResult        `json:"untraced_reps"`
	Reps      []repResult        `json:"traced_reps"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"dataset_digest"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Shares    map[string]float64 `json:"layer_shares"`
}

// minTracedPairs is the fewest pairs of repetitions, one untraced and
// one traced, behind the layer figures and the overhead.
const minTracedPairs = 2

// runTraced measures the workload for about the given number of seconds
// in pairs of repetitions on one input set: one with no wrapper
// installed, one with the seams traced. The layer figures come from the
// traced repetitions; the untraced ones, run beside them on the same box
// in the same minute, are what trace_overhead_pct is read against.
func runTraced(w *workload, seed uint64, seconds float64, sz sizing, clk clock.Clock, scratch string) (tracedSummary, *tracer, error) {
	sum := tracedSummary{Metrics: make(map[string]float64)}
	ins, err := generateInputs(w, seed, sz)
	if err != nil {
		return sum, nil, err
	}

	tr := newTracer(clk)
	var envs []*env
	var measured float64
	for pair := 0; pair%len(ins) != 0 || pair < minTracedPairs || measured < seconds; pair++ {
		for _, t := range []*tracer{nil, tr} {
			dir := filepath.Join(scratch, w.name+"-pair"+strconv.Itoa(pair))
			res, e, rerr := runRep(w, ins[pair%len(ins)], sz, clk, dir, t, pair == 0)
			removeScratch(dir)
			if t == nil {
				sum.Untraced = append(sum.Untraced, res)
			} else {
				sum.Reps = append(sum.Reps, res)
				envs = append(envs, e)
			}
			if rerr != nil {
				sum.Problems = append(sum.Problems, rerr.Error())
				return sum, nil, rerr
			}
			measured += res.TimedS
		}
	}

	sum.Digest = sum.Untraced[0].Digest
	var rates, baseRates, pooled []float64
	var stalls int
	var timedS, stallS, stallAllocKB float64
	for _, r := range sum.Untraced {
		baseRates = append(baseRates, r.OpsPerS)
		sum.Problems = append(sum.Problems, r.Errors...)
	}
	for _, r := range sum.Reps {
		sum.Attempted += r.Ops
		sum.Failed += r.Failed
		rates = append(rates, r.OpsPerS)
		pooled = append(pooled, r.latencies...)
		stalls += r.Stalls
		timedS += r.TimedS
		stallS += r.StallS
		stallAllocKB += r.StallAllocKB
		sum.Problems = append(sum.Problems, r.Errors...)
		if r.Input == 0 && r.Digest != "" && r.Digest != sum.Digest {
			// The traced engine is a hand-assembled mirror of
			// mood.NewPipeline; this is the check that keeps it one.
			sum.Problems = append(sum.Problems, fmt.Sprintf(
				"traced repetition published %s, untraced %s: the traced assembly is no longer the same program",
				r.Digest, sum.Digest))
		}
	}
	sort.Float64s(pooled)

	m := sum.Metrics
	sum.Shares = layerMetrics(m, tr, envs, len(sum.Reps))
	m["store.stall_share"], m["store.checkpoint_alloc_kb"] = 0, 0
	if timedS > 0 {
		m["store.stall_share"] = stallS / timedS
	}
	if stalls > 0 {
		m["store.checkpoint_alloc_kb"] = stallAllocKB / float64(stalls)
	}
	m["service.client_op_p90_ms"] = quantile(pooled, 0.90)
	m["service.client_op_p99_ms"] = quantile(pooled, 0.99)
	m["failed_share"] = failedShare(sum.Failed, sum.Attempted)
	if base := median(baseRates); base > 0 {
		m["trace_overhead_pct"] = 100 * (1 - median(rates)/base)
	}
	if len(sum.Problems) > 0 {
		return sum, tr, fmt.Errorf("%s: %s", w.name, sum.Problems[0])
	}
	return sum, tr, nil
}

// mergeIntervals returns the union of the intervals as a sorted list of
// disjoint intervals.
func mergeIntervals(ivs []interval) []interval {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var out []interval
	for _, iv := range s {
		if iv.hi <= iv.lo {
			continue
		}
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			if iv.hi > out[n-1].hi {
				out[n-1].hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// overlapNs is the length of the intersection of two lists of sorted,
// disjoint intervals.
func overlapNs(a, b []interval) int64 {
	var total int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := a[i].lo, a[i].hi
		if b[j].lo > lo {
			lo = b[j].lo
		}
		if b[j].hi < hi {
			hi = b[j].hi
		}
		if hi > lo {
			total += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return total
}

// storeInsideNodes is the part of the node handlers' self time during
// which their node was inside store.Append: per handler span, its self
// intervals (the handler minus the engine spans under it) intersected
// with the union of its node's append spans. The store seam is
// aggregate-only — group commit merges the causes of a sync, so an
// append cannot be booked to one op — and this is the aggregate that is
// split out of the node handlers' self time: a handler whose chunk
// queues behind another op's append is waiting for the store too.
func storeInsideNodes(spans []span, children [][]interval) int64 {
	appends := make(map[uint8][]interval)
	for _, s := range spans {
		if s.Layer == layerAppend {
			appends[s.Detail] = append(appends[s.Detail], interval{s.Start, s.End})
		}
	}
	for d := range appends {
		appends[d] = mergeIntervals(appends[d])
	}
	var total int64
	for i, s := range spans {
		if s.Layer != layerNode || s.Op == 0 {
			continue
		}
		busy := appends[s.Detail]
		// Skip the appends that ended before this handler began.
		from := sort.Search(len(busy), func(j int) bool { return busy[j].hi > s.Start })
		to := from
		for to < len(busy) && busy[to].lo < s.End {
			to++
		}
		total += overlapNs(selfIntervals(s.Start, s.End, children[i]), busy[from:to])
	}
	return total
}

// layerMetrics fills in every span- and counter-derived per-layer
// metric and returns the share of client wall time booked to each module
// (or to the unattributed residue); the shares sum to one. reps is the
// number of traced repetitions behind the totals.
func layerMetrics(m map[string]float64, tr *tracer, envs []*env, reps int) map[string]float64 {
	spans := tr.snapshot()
	children := childIntervals(spans)
	self := selfTimes(spans, children)
	acc := account(spans, children)
	perOp := func(ns float64) float64 {
		if acc.ops == 0 {
			return 0
		}
		return ns / float64(acc.ops) / 1e6
	}
	perRep := func(n int64) float64 { return float64(n) / float64(reps) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Span tallies by layer, and the router's fan-out shape.
	var count, durNs [numLayers]int64
	exchangesOf := make(map[spanID]int)     // router span → its node exchanges
	slowestNode := make(map[spanID]int64)   // router span → its slowest node handler
	routerOfNode := make(map[spanID]spanID) // node span → router span
	for i, s := range spans {
		count[s.Layer]++
		durNs[s.Layer] += s.dur()
		switch s.Layer {
		case layerRouterHTTP:
			exchangesOf[s.Parent]++
		case layerNode:
			if s.Parent >= 0 && spans[s.Parent].Layer == layerRouterHTTP {
				r := spans[s.Parent].Parent
				routerOfNode[spanID(i)] = r
				if s.dur() > slowestNode[r] {
					slowestNode[r] = s.dur()
				}
			}
		}
	}
	var forwards, scatters int64
	var mergeNs, scatterNs, slowestNs, pageSelfNs, pageSpans int64
	for r, n := range exchangesOf {
		if n == 1 {
			forwards++
			continue
		}
		scatters++
		mergeNs += spans[r].dur() - slowestNode[r]
		scatterNs += spans[r].dur()
		slowestNs += slowestNode[r]
	}
	for nodeSpan, r := range routerOfNode {
		if exchangesOf[r] > 1 {
			pageSelfNs += self[nodeSpan]
			pageSpans++
		}
	}

	at := &acc.attributed
	nodeSelf := at[layerNode] - acc.storeNs

	m["service.client_self_ms"] = perOp(at[layerClientOp] + at[layerClientHTTP] + at[layerClientBody])
	m["cluster.router_self_ms"] = perOp(at[layerRouter] + at[layerRouterHTTP] + at[layerRouterBody])
	m["cluster.forwards"] = perRep(forwards)
	m["cluster.scatters"] = perRep(scatters)
	m["cluster.merge_self_ms"] = ratio(float64(mergeNs)/1e6, float64(scatters))
	m["cluster.slowest_node_share"] = ratio(float64(slowestNs), float64(scatterNs))
	m["service.node_self_ms"] = perOp(nodeSelf)
	m["service.page_self_ms"] = ratio(float64(pageSelfNs)/1e6, float64(pageSpans))
	m["core.protect_self_ms"] = perOp(at[layerProtect])
	m["lppm.obfuscate_ms"] = perOp(at[layerLPPM])
	m["lppm.calls"] = perRep(count[layerLPPM])
	m["attack.identify_ms"] = perOp(at[layerIdentify])
	m["attack.identify_calls"] = perRep(count[layerIdentify])
	m["attack.train_ms"] = perOp(at[layerTrain])
	m["attack.audit_ms"] = perOp(at[layerAudit])
	m["unattributed_share"] = acc.unattributedShare()

	// Store and filesystem seams (aggregate).
	var sc struct{ appends, payload, written, ckptBytes int64 }
	var oc struct{ chunks, shed, replays int64 }
	var obs protectObserver
	var audited int64
	for _, e := range envs {
		sc.appends += e.sc.appends.Load()
		sc.payload += e.sc.payloadBytes.Load()
		sc.written += e.sc.bytesWritten.Load()
		sc.ckptBytes += e.sc.checkpointBytes.Load()
		oc.chunks += e.counts.chunks.Load()
		oc.shed += e.counts.shed.Load()
		oc.replays += e.counts.replays.Load()
		if e.engine != nil && e.engine.traced != nil {
			o := e.engine.traced.obs
			o.mu.Lock()
			obs.protects += o.protects
			obs.candidates += o.candidates
			obs.pieces += o.pieces
			obs.records += o.records
			obs.lostRecords += o.lostRecords
			obs.distortion += o.distortion
			o.mu.Unlock()
			audited += e.engine.traced.audited.Load()
		}
	}
	m["store.append_ms"] = ratio(float64(durNs[layerAppend])/1e6, float64(count[layerAppend]))
	m["store.appends"] = perRep(sc.appends)
	m["store.syncs"] = perRep(count[layerSync])
	m["store.sync_ms"] = ratio(float64(durNs[layerSync])/1e6, float64(count[layerSync]))
	m["store.commits_per_sync"] = ratio(float64(sc.appends), float64(count[layerSync]))
	m["store.bytes_written"] = perRep(sc.written)
	m["store.write_amp"] = ratio(float64(sc.written), float64(sc.payload))
	m["store.checkpoint_ms"] = ratio(float64(durNs[layerCompact])/1e6, float64(count[layerCompact]))
	m["store.checkpoint_bytes"] = ratio(float64(sc.ckptBytes), float64(count[layerCompact]))
	m["store.replay_ms"] = ratio(float64(durNs[layerLoad])/1e6, float64(count[layerLoad]))

	m["service.chunks"] = perRep(oc.chunks)
	m["service.shed"] = perRep(oc.shed)
	m["service.replays"] = perRep(oc.replays)

	m["core.protects"] = perRep(int64(obs.protects))
	m["core.candidates_per_chunk"] = ratio(float64(obs.candidates), float64(obs.protects))
	m["core.pieces_per_chunk"] = ratio(float64(obs.pieces), float64(obs.protects))
	m["core.data_loss_pct"] = 100 * ratio(float64(obs.lostRecords), float64(obs.records))
	m["core.distortion_m"] = ratio(obs.distortion, float64(obs.pieces))
	m["attack.identifies_per_piece"] = ratio(float64(count[layerIdentify]), float64(obs.pieces))
	m["attack.audited"] = ratio(float64(audited), float64(acc.ops))

	wall := float64(acc.wallNs)
	return map[string]float64{
		"service":      ratio(at[layerClientOp]+at[layerClientBody]+nodeSelf, wall),
		"cluster":      ratio(at[layerRouter]+at[layerRouterBody], wall),
		"store":        ratio(acc.storeNs+at[layerStall], wall),
		"core":         ratio(at[layerProtect], wall),
		"lppm":         ratio(at[layerLPPM]+at[layerRetrain], wall),
		"attack":       ratio(at[layerIdentify]+at[layerTrain]+at[layerAudit], wall),
		"unattributed": acc.unattributedShare(),
	}
}

// printShares writes the share table, largest first.
func printShares(w io.Writer, shares map[string]float64) {
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if shares[names[i]] != shares[names[j]] {
			return shares[names[i]] > shares[names[j]]
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		fmt.Fprintf(w, "  share %-13s %5.1f %%\n", n, 100*shares[n])
	}
}
