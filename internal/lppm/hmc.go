package lppm

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"mood/internal/geo"
	"mood/internal/heatmap"
	"mood/internal/mathx"
	"mood/internal/profile"
	"mood/internal/trace"
)

// HMC implements HeatMap Confusion [23]: the mobility trace is
// re-expressed as a heatmap, the heatmap is altered to resemble the
// heatmap of *another* user drawn from background knowledge, and the
// altered heatmap is transformed back into a trace.
//
// Concretely, the mechanism matches every cell of the source heatmap to
// a cell of the chosen target profile (greedy, by descending source
// weight, nearest target cell first, each target cell used once while
// available) and translates each record into its matched cell while
// preserving the record's in-cell offset and timestamp. The result keeps
// the temporal rhythm and fine motion of the original trace but its
// spatial support is the target user's — which is what confuses
// profile-matching attacks.
//
// The translation is deliberately lossy, like the original's
// heatmap-to-trace reconstruction: cells are translated in descending
// weight order until either the Cover fraction of the record mass or the
// MaxCells cell budget is reached; the remaining tail stays in place.
// Users whose mobility concentrates in a few places are imitated almost
// perfectly, while users with diffuse, distinctive mobility (couriers,
// tight-zone taxis) leave a residual footprint — exactly the users HMC
// fails to protect in the paper's Figure 7.
//
// HMC needs background knowledge; build it with NewHMC before use.
type HMC struct {
	grid     *geo.Grid
	cover    float64
	maxCells int
	profiles []hmcProfile
}

// DefaultHMCCover is the default translated mass fraction.
const DefaultHMCCover = 0.9

// DefaultHMCMaxCells is the default translated-cell budget, modelling
// the alignment cost of the original mechanism's heatmap optimisation.
const DefaultHMCMaxCells = 24

type hmcProfile struct {
	user string
	// frozen is the profile heatmap in sorted-sparse form, shared with
	// the profile set (and the AP-attack), so target selection is
	// allocation-free merge walks.
	frozen *heatmap.Frozen
	// quant is frozen's float32 companion, also shared: pickTarget's
	// prune.
	quant *heatmap.Quant
	cells []heatmap.CellWeight // descending weight
}

var _ Mechanism = (*HMC)(nil)

// NewHMC builds the mechanism from background traces (the attacker-side
// knowledge H of the paper's system model). cellSize <= 0 selects the
// paper's 800 m.
func NewHMC(cellSize float64, background []trace.Trace) (*HMC, error) {
	return NewHMCOn(profile.New(background, cellSize))
}

// NewHMCOn builds the mechanism as a view over ps: its imitation pool is
// ps's users, in background order (pickTarget's first-minimum scan
// depends on it), on ps's grid, with their heatmaps, float32 companions
// and ranked cells.
func NewHMCOn(ps *profile.Set) (*HMC, error) {
	if len(ps.Background()) == 0 {
		return nil, fmt.Errorf("lppm: HMC needs background traces")
	}
	if ps.Grid() == nil {
		return nil, fmt.Errorf("lppm: HMC background has no records")
	}
	if n := len(ps.Users()); n < 2 {
		return nil, fmt.Errorf("lppm: HMC needs at least two background users, got %d", n)
	}
	ps.Quants() // on the same users Ranked returns
	users := ps.Ranked()
	h := &HMC{
		grid:     ps.Grid(),
		cover:    DefaultHMCCover,
		maxCells: DefaultHMCMaxCells,
		profiles: make([]hmcProfile, len(users)),
	}
	for i := range users {
		u := &users[i]
		h.profiles[i] = hmcProfile{user: u.ID, frozen: u.Frozen, quant: u.Quant, cells: u.Cells}
	}
	return h, nil
}

// SetMaxCells overrides the translated-cell budget (values < 1 restore
// the default). Exposed for the ablation benchmarks.
func (h *HMC) SetMaxCells(n int) {
	if n < 1 {
		n = DefaultHMCMaxCells
	}
	h.maxCells = n
}

// Name implements Mechanism.
func (*HMC) Name() string { return "HMC" }

// Deterministic implements Deterministic: HMC draws no randomness.
func (*HMC) Deterministic() bool { return true }

// Obfuscate implements Mechanism.
func (h *HMC) Obfuscate(_ *mathx.Rand, t trace.Trace) (trace.Trace, error) {
	if t.Empty() {
		return trace.Trace{}, ErrEmptyTrace
	}
	src := heatmap.FrozenFromTrace(h.grid, t)
	target := h.pickTarget(t.User, src, src.Quantize())
	if target == nil {
		return trace.Trace{}, fmt.Errorf("lppm: HMC found no target profile for user %q", t.User)
	}
	return h.imitate(t, src, target), nil
}

// hmcScratch is an HMC run's working memory, pooled: the source's cells
// by rank, the target cells taken, and the mapping — each source cell's
// destination, aligned with the source heatmap's (X, Y)-sorted cells.
type hmcScratch struct {
	top  []heatmap.CellWeight
	used []bool
	to   []geo.Cell
}

var hmcScratchPool = sync.Pool{New: func() any { return new(hmcScratch) }}

// imitate translates t, whose heatmap is src, into target's cells.
func (h *HMC) imitate(t trace.Trace, src *heatmap.Frozen, target *hmcProfile) trace.Trace {
	s := hmcScratchPool.Get().(*hmcScratch)
	defer hmcScratchPool.Put(s)
	s.top = src.AppendTopCells(s.top[:0])
	s.used = slices.Grow(s.used[:0], len(target.cells))[:len(target.cells)]
	s.to = slices.Grow(s.to[:0], len(s.top))[:len(s.top)]
	mapping := h.matchCells(s, src, target)

	out := records(len(t.Records))
	for i, r := range t.Records {
		p := r.Point()
		c := h.grid.CellOf(p)
		// Cells can be missing only if the trace changed between heatmap
		// construction and translation, which would be a bug; fall back
		// to identity to stay total.
		dst := c
		if k, ok := src.CellIndex(c); ok {
			dst = mapping[k]
		}
		fx, fy := h.grid.Offsets(p)
		out[i] = trace.At(h.grid.PointIn(dst, fx, fy), r.TS)
	}
	return trace.Trace{User: t.User, Records: out}
}

// pickTarget returns the background profile most similar to src (q is
// src's float32 companion) that does not belong to the same user: the
// first profile, in background order, with the smallest exact Topsoe
// divergence. Two shortcuts keep the scan cheap without changing its
// answer. A profile is skipped when q's quantized walk certifies that
// its divergence reaches the best so far (heatmap.Quant.Prune), and an
// exact walk is abandoned once its partial sum does (Topsoe terms are
// non-negative). The scan only ever takes a strictly smaller divergence,
// so a profile whose divergence reaches the best so far can never be
// picked, and the target is the one an exhaustive exact scan picks.
func (h *HMC) pickTarget(user string, src *heatmap.Frozen, q *heatmap.Quant) *hmcProfile {
	var best *hmcProfile
	bestD := math.Inf(1)
	for i := range h.profiles {
		p := &h.profiles[i]
		if p.user == user || q.Prune(p.quant, bestD) {
			continue
		}
		if d := src.TopsoeBounded(p.frozen, bestD); d < bestD {
			bestD = d
			best = p
		}
	}
	return best
}

// hmcRankMatched is the number of head cells matched by weight rank.
// The head of a mobility heatmap holds the discriminative places (home,
// work); sending the source's rank-i place to the target's rank-i place
// is what actually confuses profile-matching attacks. The tail (transit
// cells) is matched to the nearest target cell instead, which preserves
// utility.
const hmcRankMatched = 6

// matchCells assigns source cells to target cells: the heaviest
// hmcRankMatched source cells are rank-matched against the target's
// heaviest cells; further cells take the geographically nearest target
// cell (consuming unused target cells first, then reusing the nearest) —
// but only until the translated cells cover the Cover fraction of the
// source's record mass. The remaining tail maps to itself, modelling the
// reconstruction loss of the original mechanism. Deterministic by
// construction. It works in s, which holds src's cells by rank and is
// sized for them and target's; the mapping it returns is s's, aligned
// with src's (X, Y)-sorted cells.
func (h *HMC) matchCells(s *hmcScratch, src *heatmap.Frozen, target *hmcProfile) []geo.Cell {
	srcCells, tgt, mapping := s.top, target.cells, s.to
	used := s.used // by index: a heatmap's cells are distinct
	clear(used)
	remaining := len(tgt)
	total := src.Total()

	head := hmcRankMatched
	if head > len(srcCells) {
		head = len(srcCells)
	}
	if head > len(tgt) {
		head = len(tgt)
	}
	var covered float64
	translated := 0
	for i := 0; i < head; i++ {
		at, _ := src.CellIndex(srcCells[i].Cell)
		mapping[at] = tgt[i].Cell
		covered += srcCells[i].Weight
		translated++
		used[i] = true
		remaining--
	}

	for _, sc := range srcCells[head:] {
		at, _ := src.CellIndex(sc.Cell)
		if (total > 0 && covered/total >= h.cover) || translated >= h.maxCells {
			// Reconstruction budget exhausted: the tail stays put.
			mapping[at] = sc.Cell
			continue
		}
		bestIdx := -1
		bestD := math.Inf(1)
		for i, tc := range tgt {
			if remaining > 0 && used[i] {
				continue
			}
			d := h.grid.CellDistance(sc.Cell, tc.Cell)
			if d < bestD {
				bestD = d
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			mapping[at] = sc.Cell
			continue
		}
		mapping[at] = tgt[bestIdx].Cell
		covered += sc.Weight
		translated++
		if !used[bestIdx] {
			used[bestIdx] = true
			remaining--
		}
	}
	return mapping
}
