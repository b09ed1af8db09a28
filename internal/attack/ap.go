package attack

import (
	"fmt"
	"math"

	"mood/internal/geo"
	"mood/internal/heatmap"
	"mood/internal/par"
	"mood/internal/trace"
)

// Divergence selects how AP compares heatmap distributions. The AP
// paper [22] evaluated several f-divergences and found Topsoe the most
// effective; the alternatives are kept for sensitivity experiments.
type Divergence int

// Supported heatmap divergences.
const (
	// DivTopsoe is the paper's choice (default).
	DivTopsoe Divergence = iota
	// DivJensenShannon is Topsoe/2 (same ranking, different scale).
	DivJensenShannon
	// DivL1 is the total-variation-style absolute difference.
	DivL1
)

// String implements fmt.Stringer.
func (d Divergence) String() string {
	switch d {
	case DivJensenShannon:
		return "jensen-shannon"
	case DivL1:
		return "l1"
	default:
		return "topsoe"
	}
}

// AP is the AP-Attack of Maouche et al. [22]: each user's mobility is
// profiled as a heatmap over fixed cells (800 m in the paper) and an
// anonymous trace is attributed to the profile with the smallest
// divergence (Topsoe in the paper).
type AP struct {
	// CellSize is the heatmap granularity in meters (0 selects the
	// paper's 800 m).
	CellSize float64
	// Divergence selects the profile distance (default Topsoe).
	Divergence Divergence
	// TimeSlices splits each day into this many slices, profiling one
	// heatmap per slice (e.g. 2 = day/night). 0 or 1 reproduces the
	// paper's single time-agnostic heatmap; higher values make the
	// attack sensitive to *when* places are visited, a sensitivity
	// variant of the original paper.
	TimeSlices int

	grid     *geo.Grid
	profiles []apProfile
	// block is the profile count per cache-resident block of the batch
	// scan, sized at Train time from the quantized footprint.
	block int
}

type apProfile struct {
	user string
	// slices holds one frozen heatmap per time slice: Train freezes every
	// profile once, so the Identify scan is pure merge walks with no
	// per-comparison allocation.
	slices []*heatmap.Frozen
	// quant is the float32-quantized companion of slices, also built at
	// Train time; the batch scans use it to prune provable losers before
	// touching the exact kernels (see pruneFrozen).
	quant []*heatmap.Quant
}

// sliceOf maps a Unix timestamp to its time-of-day slice index.
func (a *AP) sliceOf(ts int64) int {
	n := a.slices()
	if n == 1 {
		return 0
	}
	secOfDay := ts % 86400
	if secOfDay < 0 {
		secOfDay += 86400
	}
	return int(secOfDay * int64(n) / 86400)
}

func (a *AP) slices() int {
	if a.TimeSlices <= 1 {
		return 1
	}
	return a.TimeSlices
}

// buildSlices aggregates a trace into per-slice frozen heatmaps.
func (a *AP) buildSlices(t trace.Trace) []*heatmap.Frozen {
	hms := make([]*heatmap.Heatmap, a.slices())
	for i := range hms {
		hms[i] = heatmap.New(a.grid)
	}
	for _, r := range t.Records {
		hms[a.sliceOf(r.TS)].Add(r.Point(), 1)
	}
	out := make([]*heatmap.Frozen, len(hms))
	for i, hm := range hms {
		out[i] = hm.Freeze()
	}
	return out
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
		slices := a.buildSlices(t)
		return apProfile{user: t.User, slices: slices, quant: heatmap.QuantizeAll(slices)}, true
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
		for _, q := range profiles[pi].quant {
			bytes += q.MemBytes()
		}
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

// Identify implements Attack. The anonymous trace is frozen once; the
// profile scan is then allocation-free merge walks with a best-so-far
// early exit (see identifyFrozen).
func (a *AP) Identify(t trace.Trace) Verdict {
	if a.grid == nil {
		return Verdict{}
	}
	if t.Empty() {
		return Verdict{}
	}
	return a.identifyFrozen(a.buildSlices(t))
}

// identifyFrozen scans the trained profiles for the smallest weighted
// divergence to the frozen anonymous slices, folding completed scores
// through the shared topTwo tracker: ties break toward the lowest user
// ID and the runner-up score feeds Verdict.Margin. A profile is
// abandoned as soon as its accumulated weighted score provably reaches
// the topTwo bound — sound because every divergence term is
// non-negative (see heatmap.TopsoeBounded) — so the verdict is
// bit-identical to an exhaustive scan. The loop allocates nothing.
func (a *AP) identifyFrozen(anon []*heatmap.Frozen) Verdict {
	k := newTopTwo()
	for pi := range a.profiles {
		p := &a.profiles[pi]
		if d, ok := a.scoreFrozen(anon, p, k.bound()); ok {
			k.consider(p.user, d)
		}
	}
	return k.verdict()
}

// scoreFrozen returns the exact weighted divergence between the frozen
// anonymous slices and profile p, abandoning the merge walks once the
// final score provably reaches bound. ok reports a completed scan with
// score < bound; an abandoned scan's partial score is meaningless and
// discarded by the caller. This is the one exact scoring path shared
// by the scalar scan, the blocked batch scan and the owner-seeded hit
// scan — bit-identity between them is by construction.
func (a *AP) scoreFrozen(anon []*heatmap.Frozen, p *apProfile, bound float64) (float64, bool) {
	// First pass: the total slice weight, so the early-exit bound can
	// be expressed on the final weighted score d/weight.
	var weight float64
	for i, hm := range anon {
		if hm.Total() == 0 && p.slices[i].Total() == 0 {
			continue // neither side has data in this slice
		}
		w := hm.Total()
		if w == 0 {
			w = 1 // profile-only slice: small disagreement weight
		}
		weight += w
	}
	var d float64
	for i, hm := range anon {
		if hm.Total() == 0 && p.slices[i].Total() == 0 {
			continue
		}
		w := hm.Total()
		if w == 0 {
			w = 1
		}
		d += a.sliceTerm(hm, p.slices[i], w, d, weight, bound)
		if d/weight >= bound {
			return d, false // cannot drop below the bound any more
		}
	}
	if weight > 0 {
		d /= weight
	}
	return d, d < bound
}

// pruneFrozen reports whether the float32 quantized pass certifies
// that p's exact weighted score cannot drop below bound, letting the
// batch scans skip the exact float64 walk entirely. Soundness: a
// completed quantized slice divergence is within heatmap.QuantTopsoeSlack
// (resp. QuantL1Slack) of the exact value — enforced with margin by
// TestQuantSlackSound — so approx−slack lower-bounds each exact term,
// and only profiles whose accumulated lower bound reaches the caller's
// bound are pruned. Verdicts come exclusively from exact scans of the
// survivors: pruning can cost speed, never bits.
func (a *AP) pruneFrozen(anon []*heatmap.Frozen, quant []*heatmap.Quant, p *apProfile, bound float64) bool {
	if math.IsInf(bound, 1) {
		return false
	}
	var weight float64
	for i, hm := range anon {
		if hm.Total() == 0 && p.slices[i].Total() == 0 {
			continue
		}
		w := hm.Total()
		if w == 0 {
			w = 1
		}
		weight += w
	}
	if weight == 0 {
		return false
	}
	need := bound * weight // prune once the weighted lower bound reaches this
	var lower float64
	for i, hm := range anon {
		if hm.Total() == 0 && p.slices[i].Total() == 0 {
			continue
		}
		w := hm.Total()
		if w == 0 {
			w = 1
		}
		q, pq := quant[i], p.quant[i]
		n := q.Cells() + pq.Cells()
		// rem is the extra slice contribution that would certify the
		// prune; the quantized walk may exit early once its partial sum
		// alone reaches slack+rem (in the raw approximation's scale).
		rem := (need - lower) / w
		var contrib float64
		switch a.Divergence {
		case DivJensenShannon:
			slack := heatmap.QuantTopsoeSlack(n)
			ap := float64(q.TopsoeQuantBounded(pq, float32(slack+2*rem)))
			contrib = (ap - slack) / 2
		case DivL1:
			slack := heatmap.QuantL1Slack(n)
			ap := float64(q.L1QuantBounded(pq, float32(slack+rem)))
			contrib = ap - slack
		default:
			slack := heatmap.QuantTopsoeSlack(n)
			ap := float64(q.TopsoeQuantBounded(pq, float32(slack+rem)))
			contrib = ap - slack
		}
		if contrib < 0 {
			contrib = 0 // exact terms are non-negative; keep the bound valid
		}
		lower += w * contrib
		if lower >= need {
			return true
		}
	}
	return false
}

// sliceTerm returns one slice's weighted contribution w*distance under
// the configured divergence, walking with the early-exit bound of the
// enclosing scan: acc is the score accumulated over previous slices,
// weight the profile's total slice weight and bound the best final score
// seen so far.
func (a *AP) sliceTerm(anon, prof *heatmap.Frozen, w, acc, weight, bound float64) float64 {
	switch a.Divergence {
	case DivJensenShannon:
		return w * (anon.TopsoeBounded(prof, 0.5*w, acc, weight, bound) / 2)
	case DivL1:
		return w * anon.L1Bounded(prof, w, acc, weight, bound)
	default:
		return w * anon.TopsoeBounded(prof, w, acc, weight, bound)
	}
}

// Grid exposes the trained grid (diagnostics).
func (a *AP) Grid() *geo.Grid { return a.grid }

// apAnon is one anonymous trace of a batch, frozen and quantized once.
type apAnon struct {
	slices []*heatmap.Frozen
	quant  []*heatmap.Quant
	k      topTwo
	skip   bool
}

// IdentifyBatch implements BatchIdentifier: verdicts are bit-identical
// to per-trace Identify calls (see identifyBatchSpan), with each trace
// frozen once and the profile scan restructured for cache locality and
// float32 pruning.
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
// exact kernels; survivors are rescored in exact float64 through the
// same scoreFrozen as the scalar path, and topTwo's fold is
// scan-order-independent — so the verdicts are bit-identical to
// Identify's despite the reordering.
func (a *AP) identifyBatchSpan(ts []trace.Trace, out []Verdict, lo, hi int) {
	anons := make([]apAnon, hi-lo)
	for i := range anons {
		an := &anons[i]
		if ts[lo+i].Empty() {
			an.skip = true
			continue
		}
		an.slices = a.buildSlices(ts[lo+i])
		an.quant = heatmap.QuantizeAll(an.slices)
		an.k = newTopTwo()
	}
	for bs := 0; bs < len(a.profiles); bs += a.block {
		be := bs + a.block
		if be > len(a.profiles) {
			be = len(a.profiles)
		}
		for i := range anons {
			an := &anons[i]
			if an.skip {
				continue
			}
			for pi := bs; pi < be; pi++ {
				p := &a.profiles[pi]
				bound := an.k.bound()
				if a.pruneFrozen(an.slices, an.quant, p, bound) {
					continue
				}
				if d, ok := a.scoreFrozen(an.slices, p, bound); ok {
					an.k.consider(p.user, d)
				}
			}
		}
	}
	for i := range anons {
		if !anons[i].skip {
			out[lo+i] = anons[i].k.verdict()
		}
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
	anon := a.buildSlices(t)
	quant := heatmap.QuantizeAll(anon)
	// Owner score: the minimum over the owner's profiles (normally
	// exactly one).
	so := math.Inf(1)
	seen := false
	for pi := range a.profiles {
		p := &a.profiles[pi]
		if p.user != owner {
			continue
		}
		if d, ok := a.scoreFrozen(anon, p, math.Inf(1)); ok && d < so {
			so, seen = d, true
		}
	}
	if !seen {
		return false
	}
	bound := nextUp(so)
	for pi := range a.profiles {
		p := &a.profiles[pi]
		if p.user == owner {
			continue
		}
		if a.pruneFrozen(anon, quant, p, bound) {
			continue
		}
		d, ok := a.scoreFrozen(anon, p, bound)
		if !ok {
			continue
		}
		if d < so || (d == so && p.user < owner) {
			return false
		}
	}
	return true
}
