package attack

import (
	"fmt"
	"math"

	"mood/internal/geo"
	"mood/internal/heatmap"
	"mood/internal/par"
	"mood/internal/trace"
)

// AP is the AP-Attack of Maouche et al. [22]: each user's mobility is
// profiled as a heatmap over fixed cells (800 m in the paper) and an
// anonymous trace is attributed to the profile with the smallest Topsoe
// divergence.
type AP struct {
	// CellSize is the heatmap granularity in meters (0 selects the
	// paper's 800 m).
	CellSize float64

	grid     *geo.Grid
	profiles []apProfile
	// block is the profile count per cache-resident block of the batch
	// scan, sized at Train time from the quantized footprint.
	block int
}

type apProfile struct {
	user string
	// frozen is the profile's heatmap, frozen once at Train time so the
	// scans are pure merge walks with no per-comparison allocation.
	frozen *heatmap.Frozen
	// quant is the float32-quantized companion of frozen, also built at
	// Train time; the scans use it to prune provable losers before
	// touching the exact kernel (see pruneFrozen).
	quant *heatmap.Quant
}

var _ Attack = (*AP)(nil)

// NewAP returns an AP-attack with the paper's cell size.
func NewAP() *AP { return &AP{CellSize: heatmap.DefaultCellSize} }

// Name implements Attack.
func (*AP) Name() string { return "AP" }

// Train implements Attack.
func (a *AP) Train(background []trace.Trace) error {
	size := a.CellSize
	if size <= 0 {
		size = heatmap.DefaultCellSize
	}
	box := geo.EmptyBBox()
	for _, t := range background {
		if !t.Empty() {
			box = box.Extend(t.BBox().Center())
		}
	}
	if box.Empty() {
		return fmt.Errorf("attack: AP background has no records")
	}
	a.grid = geo.NewGrid(box.Center(), size)
	a.profiles = par.Collect(len(background), func(i int) (apProfile, bool) {
		t := background[i]
		if t.Empty() {
			return apProfile{}, false
		}
		f := heatmap.FrozenFromTrace(a.grid, t)
		return apProfile{user: t.User, frozen: f, quant: f.Quantize()}, true
	})
	if len(a.profiles) == 0 {
		return fmt.Errorf("attack: AP has no usable profiles")
	}
	a.block = apBlockLen(a.profiles)
	return nil
}

// apBlockBytes targets the quantized footprint of one profile block of
// the batch scan (~half a typical L2 cache): the outer loop holds a
// block while every trace of the batch streams against it, so the
// block — not the whole profile set — is what must stay resident.
const apBlockBytes = 256 << 10

// apBlockLen sizes the profile block from the average quantized
// profile footprint.
func apBlockLen(profiles []apProfile) int {
	if len(profiles) == 0 {
		return 1
	}
	var bytes int
	for pi := range profiles {
		bytes += profiles[pi].quant.MemBytes()
	}
	n := apBlockBytes / (bytes/len(profiles) + 1)
	if n < 1 {
		return 1
	}
	if n > len(profiles) {
		return len(profiles)
	}
	return n
}

// Identify implements Attack as a batch of one.
func (a *AP) Identify(t trace.Trace) Verdict {
	return a.IdentifyBatch([]trace.Trace{t})[0]
}

// pruneFrozen reports whether the float32 quantized pass certifies that
// p's exact Topsoe score against the anonymous heatmap cannot drop below
// bound, letting the scans skip the exact float64 walk entirely.
// Soundness: a completed quantized walk is within
// heatmap.QuantTopsoeSlack of the exact value — enforced with margin by
// TestQuantSlackSound — and an early-exited one only under-states it, so
// approx−slack lower-bounds the exact score, and only profiles whose
// lower bound reaches the caller's bound are pruned. Verdicts come
// exclusively from exact scans of the survivors: pruning can cost
// speed, never bits.
func pruneFrozen(quant *heatmap.Quant, p *apProfile, bound float64) bool {
	if math.IsInf(bound, 1) {
		return false
	}
	slack := heatmap.QuantTopsoeSlack(quant.Cells() + p.quant.Cells())
	return float64(quant.TopsoeQuantBounded(p.quant, float32(slack+bound)))-slack >= bound
}

// Grid exposes the trained grid (diagnostics).
func (a *AP) Grid() *geo.Grid { return a.grid }

// apAnon is one anonymous trace of a batch, frozen and quantized once;
// an empty trace has no heatmap and gets no verdict.
type apAnon struct {
	frozen *heatmap.Frozen
	quant  *heatmap.Quant
	k      topTwo
}

// IdentifyBatch returns one verdict per trace: the profile with the
// smallest Topsoe divergence, ties broken toward the lowest user ID.
// Each trace is frozen once and the profile scan is restructured for
// cache locality and float32 pruning (see identifyBatchSpan).
func (a *AP) IdentifyBatch(ts []trace.Trace) []Verdict {
	out := make([]Verdict, len(ts))
	if a.grid == nil {
		return out
	}
	par.Spans(len(ts), func(lo, hi int) { a.identifyBatchSpan(ts, out, lo, hi) })
	return out
}

// identifyBatchSpan scans traces [lo, hi) of the batch through the
// trained profiles in cache-resident blocks: the outer loop walks
// profile blocks, the inner loop streams every trace of the span
// against the block while it is hot, and each trace's best-so-far
// bounds persist across blocks, so later blocks prune harder. The
// float32 quantized pass rejects most losers without touching the
// exact kernel; survivors are rescored in exact float64 with the
// topTwo bound as early exit. topTwo's fold is scan-order-independent,
// so the verdicts are bit-identical to an exhaustive argmin despite the
// reordering and pruning.
func (a *AP) identifyBatchSpan(ts []trace.Trace, out []Verdict, lo, hi int) {
	anons := make([]apAnon, hi-lo)
	for i := range anons {
		an := &anons[i]
		if ts[lo+i].Empty() {
			continue
		}
		an.frozen = heatmap.FrozenFromTrace(a.grid, ts[lo+i])
		an.quant = an.frozen.Quantize()
		an.k = newTopTwo()
	}
	for bs := 0; bs < len(a.profiles); bs += a.block {
		be := min(bs+a.block, len(a.profiles))
		for i := range anons {
			an := &anons[i]
			if an.frozen == nil {
				continue
			}
			for pi := bs; pi < be; pi++ {
				p := &a.profiles[pi]
				bound := an.k.bound()
				if pruneFrozen(an.quant, p, bound) {
					continue
				}
				if d := an.frozen.TopsoeBounded(p.frozen, bound); d < bound {
					an.k.consider(p.user, d)
				}
			}
		}
	}
	for i := range anons {
		out[lo+i] = anons[i].k.verdict() // the zero topTwo renders Verdict{}
	}
}

// hitOne answers "would Identify attribute t to owner" without
// completing the argmin: the owner's exact score seeds the bound and
// the scan stops at the first profile that provably beats it under the
// shared tie rule (lower score, or equal score and smaller user ID).
// Profiles abandoned or pruned at the nextUp(ownerScore) bound have
// true scores strictly above the owner's and cannot beat it, so the
// boolean equals Identify(t).OK && User == owner exactly — at a
// fraction of the cost when a beater exists.
func (a *AP) hitOne(t trace.Trace, owner string) bool {
	if a.grid == nil || t.Empty() {
		return false
	}
	anon := heatmap.FrozenFromTrace(a.grid, t)
	quant := anon.Quantize()
	// Owner score: the minimum over the owner's profiles (normally
	// exactly one).
	so := math.Inf(1)
	for pi := range a.profiles {
		p := &a.profiles[pi]
		if p.user != owner {
			continue
		}
		if d := anon.Topsoe(p.frozen); d < so {
			so = d
		}
	}
	if math.IsInf(so, 1) {
		return false
	}
	bound := nextUp(so)
	for pi := range a.profiles {
		p := &a.profiles[pi]
		if p.user == owner || pruneFrozen(quant, p, bound) {
			continue
		}
		d := anon.TopsoeBounded(p.frozen, bound)
		if d < bound && (d < so || (d == so && p.user < owner)) {
			return false
		}
	}
	return true
}
