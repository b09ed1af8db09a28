package attack

import (
	"fmt"

	"mood/internal/geo"
	"mood/internal/heatmap"
	"mood/internal/par"
	"mood/internal/profile"
	"mood/internal/trace"
)

// AP is the AP-Attack of Maouche et al. [22]: each user's mobility is
// profiled as a heatmap over fixed cells (800 m in the paper) and an
// anonymous trace is attributed to the profile with the smallest Topsoe
// divergence. Its profiles are a view over a profile.Set's heatmaps.
type AP struct {
	grid     *geo.Grid
	profiles []apProfile
	// block is the profile count per cache-resident block of the batch
	// scan, sized at Train time from the quantized footprint.
	block int
}

type apProfile struct {
	user string
	// frozen is the profile's heatmap, shared with the profile set (and
	// HMC), so the scans are pure merge walks with no per-comparison
	// allocation.
	frozen *heatmap.Frozen
	// quant is the float32-quantized companion of frozen; the scans use
	// it to prune provable losers before touching the exact kernel (see
	// heatmap.Quant.Prune).
	quant *heatmap.Quant
}

var _ Attack = (*AP)(nil)

// NewAP returns an untrained AP-attack.
func NewAP() *AP { return &AP{} }

// Name implements Attack.
func (*AP) Name() string { return "AP" }

// Train implements Attack at the paper's cell size.
func (a *AP) Train(background []trace.Trace) error {
	return a.trainOn(profile.New(background, 0))
}

func (a *AP) trainOn(ps *profile.Set) error {
	if ps.Grid() == nil {
		return fmt.Errorf("attack: AP background has no records")
	}
	users := ps.Quants()
	a.grid = ps.Grid()
	a.profiles = make([]apProfile, len(users))
	for i := range users {
		u := &users[i]
		a.profiles[i] = apProfile{user: u.ID, frozen: u.Frozen, quant: u.Quant}
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
				if an.quant.Prune(p.quant, bound) {
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

// hitOne answers the predicate for t (ownerHit), with the float32
// prune in front of the exact kernel.
func (a *AP) hitOne(t trace.Trace, owner string) bool {
	if a.grid == nil || t.Empty() {
		return false
	}
	anon := heatmap.FrozenFromTrace(a.grid, t)
	quant := anon.Quantize()
	return ownerHit(a.profiles, owner, func(i int, bound float64) float64 {
		p := &a.profiles[i]
		if quant.Prune(p.quant, bound) {
			return bound
		}
		return anon.TopsoeBounded(p.frozen, bound)
	})
}
