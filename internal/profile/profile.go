// Package profile is the background knowledge H of one epoch (§2.2):
// the per-user features every re-identification attack profiles, and
// the imitation pool HMC draws its targets from, built once and shared.
//
// A Set anchors its grid once, at the centre of the background traces'
// bounding-box centres, and holds one User per non-empty background
// trace, in background order. Each feature family — heatmaps, their
// float32 companions, cells by descending weight, POIs, Markov chains —
// is built on first request, on every core (internal/par), and at most
// once per Set: HMC alone extracts no POIs, and an AP-only set builds no
// chains. Every family is a pure function of one trace, so a parallel
// build equals a sequential one float for float.
//
// A Set is safe for concurrent use. Read a family's fields through the
// slice its accessor returns, after the accessor has returned; copying a
// whole User races with a family another goroutine may be building.
package profile

import (
	"sync"

	"mood/internal/geo"
	"mood/internal/heatmap"
	"mood/internal/mmc"
	"mood/internal/par"
	"mood/internal/poi"
	"mood/internal/trace"
)

// User is one non-empty background trace and its features. ID may
// repeat: a background that holds a user twice yields two Users.
type User struct {
	ID    string
	Trace trace.Trace

	// Frozen is the trace's heatmap on the set's grid (Heatmaps).
	Frozen *heatmap.Frozen
	// Quant is Frozen's float32 companion (Quants).
	Quant *heatmap.Quant
	// Cells are Frozen's cells by descending weight, ties by ascending
	// (X, Y): HMC's target order (Ranked).
	Cells []heatmap.CellWeight
	// POIs are the trace's points of interest under the paper's
	// extractor (POIs).
	POIs []poi.POI
	// Chain is the mobility Markov chain over POIs and Stationary its
	// stationary distribution (Chains).
	Chain      mmc.Chain
	Stationary []float64
}

// Set is the profiled background of one epoch.
type Set struct {
	background []trace.Trace
	grid       *geo.Grid
	users      []User

	heatmaps, quants, ranked, pois, chains sync.Once
}

// New profiles background on a grid of cellSize-meter cells (<= 0
// selects the paper's 800 m). It builds no feature yet.
func New(background []trace.Trace, cellSize float64) *Set {
	if cellSize <= 0 {
		cellSize = heatmap.DefaultCellSize
	}
	s := &Set{background: background, users: make([]User, 0, len(background))}
	// The centres are computed on every core and folded in background
	// order, so the anchor is the sequential fold's, bit for bit.
	centres := make([]geo.Point, len(background))
	par.Each(len(background), func(i int) { centres[i] = background[i].BBox().Center() })
	box := geo.EmptyBBox()
	for i, t := range background {
		if t.Empty() {
			continue
		}
		box = box.Extend(centres[i])
		s.users = append(s.users, User{ID: t.User, Trace: t})
	}
	if !box.Empty() {
		s.grid = geo.NewGrid(box.Center(), cellSize)
	}
	return s
}

// Background returns the traces the set was built from, empty ones
// included.
func (s *Set) Background() []trace.Trace { return s.background }

// Grid returns the shared cell geometry, nil when the background has no
// records (then there are no Users either).
func (s *Set) Grid() *geo.Grid { return s.grid }

// Users returns the users; only ID and Trace are sure to be set.
func (s *Set) Users() []User { return s.users }

// fill builds one feature family: f on every user, in parallel, once.
func (s *Set) fill(once *sync.Once, f func(u *User)) []User {
	once.Do(func() { par.Each(len(s.users), func(i int) { f(&s.users[i]) }) })
	return s.users
}

// Heatmaps returns the users with Frozen built.
func (s *Set) Heatmaps() []User {
	return s.fill(&s.heatmaps, func(u *User) { u.Frozen = heatmap.FrozenFromTrace(s.grid, u.Trace) })
}

// Quants returns the users with Frozen and Quant built.
func (s *Set) Quants() []User {
	s.Heatmaps()
	return s.fill(&s.quants, func(u *User) { u.Quant = u.Frozen.Quantize() })
}

// Ranked returns the users with Frozen and Cells built.
func (s *Set) Ranked() []User {
	s.Heatmaps()
	return s.fill(&s.ranked, func(u *User) { u.Cells = u.Frozen.TopCells() })
}

// POIs returns the users with POIs built.
func (s *Set) POIs() []User {
	return s.fill(&s.pois, func(u *User) { u.POIs = poi.NewExtractor().Extract(u.Trace) })
}

// Chains returns the users with POIs, Chain and Stationary built.
func (s *Set) Chains() []User {
	s.POIs()
	return s.fill(&s.chains, func(u *User) {
		u.Chain = mmc.BuildFromPOIs(poi.NewExtractor(), u.POIs, u.Trace)
		u.Stationary = u.Chain.Stationary()
	})
}
