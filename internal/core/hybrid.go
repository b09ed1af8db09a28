package core

import (
	"errors"
	"fmt"

	"mood/internal/attack"
	"mood/internal/lppm"
	"mood/internal/metrics"
	"mood/internal/trace"
)

// Hybrid is the HybridLPPM baseline of Maouche et al. [22] as used in
// the paper (§4.1.2): per user, every single LPPM is evaluated and the
// protecting one with the lowest distortion is selected; if none
// protects, the user stays vulnerable and their records are lost.
// Hybrid never composes mechanisms and never splits traces — exactly
// what MooD adds on top of it.
type Hybrid struct {
	// LPPMs is the portfolio, conventionally ordered by increasing
	// expected distortion (HMC → Geo-I → TRL in the paper).
	LPPMs []lppm.Mechanism
	// Attacks is the trained attack set.
	Attacks attack.Set
	// Utility defaults to spatio-temporal distortion.
	Utility metrics.Utility
	// Seed drives mechanism randomness.
	Seed uint64
}

// Protect applies the hybrid selection to one trace. The Result uses the
// same shape as the engine's so the evaluation harness can treat both
// uniformly; an unprotected user yields zero pieces and full record loss.
func (h Hybrid) Protect(t trace.Trace) (Result, error) {
	if len(h.LPPMs) == 0 {
		return Result{}, ErrNoLPPMs
	}
	if t.Empty() {
		return Result{}, fmt.Errorf("core: hybrid: user %q: %w", t.User, lppm.ErrEmptyTrace)
	}
	util := h.Utility
	if util == nil {
		util = metrics.STDUtility{}
	}

	sel := newSelection(h.Attacks, util, h.Seed, "hybrid", t.User, "", 0)
	best, found, stats := sel.done(sel.selectBest(h.LPPMs, t))
	res := Result{User: t.User, TotalRecords: t.Len(), Stats: stats}
	if found {
		res.Pieces = []Piece{best}
		return res, nil
	}
	res.LostRecords = t.Len()
	return res, nil
}

// ProtectDataset applies the hybrid baseline to every user in parallel
// (see protectEach); empty traces are skipped, everything else keeps
// input order.
func (h Hybrid) ProtectDataset(d trace.Dataset) ([]Result, error) {
	if len(h.LPPMs) == 0 {
		return nil, ErrNoLPPMs
	}
	results, errs := protectEach(d, h.Protect)
	out := make([]Result, 0, len(results))
	for i, err := range errs {
		if err != nil {
			if errors.Is(err, lppm.ErrEmptyTrace) {
				continue
			}
			return nil, err
		}
		out = append(out, results[i])
	}
	return out, nil
}

// SingleLPPM is the simplest baseline: one mechanism applied to
// everyone, with record loss for every user it fails to protect. This is
// the "Geo-I / TRL / HMC" column of Figures 2, 3, 6, 7 and 10.
type SingleLPPM struct {
	// LPPM is the mechanism to apply (use lppm.Identity{} for the
	// no-LPPM row).
	LPPM lppm.Mechanism
	// Attacks is the trained attack set.
	Attacks attack.Set
	// Utility defaults to spatio-temporal distortion.
	Utility metrics.Utility
	// Seed drives mechanism randomness.
	Seed uint64
}

// Protect applies the single mechanism to one trace.
func (s SingleLPPM) Protect(t trace.Trace) (Result, error) {
	if s.LPPM == nil {
		return Result{}, ErrNoLPPMs
	}
	if t.Empty() {
		return Result{}, fmt.Errorf("core: single: user %q: %w", t.User, lppm.ErrEmptyTrace)
	}
	util := s.Utility
	if util == nil {
		util = metrics.STDUtility{}
	}
	sel := newSelection(s.Attacks, util, s.Seed, "single", t.User, "", 0)
	p, found, stats := sel.done(sel.selectBest([]lppm.Mechanism{s.LPPM}, t))
	res := Result{User: t.User, TotalRecords: t.Len(), Stats: stats}
	if found {
		res.Pieces = []Piece{p}
		return res, nil
	}
	res.LostRecords = t.Len()
	return res, nil
}

// ProtectDataset applies the single-LPPM baseline to every user in
// parallel (see protectEach), preserving input order.
func (s SingleLPPM) ProtectDataset(d trace.Dataset) ([]Result, error) {
	if s.LPPM == nil {
		return nil, ErrNoLPPMs
	}
	results, errs := protectEach(d, s.Protect)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Protector is the common interface of MooD and the baselines; the
// evaluation harness runs them interchangeably.
type Protector interface {
	Protect(t trace.Trace) (Result, error)
	ProtectDataset(d trace.Dataset) ([]Result, error)
}

var (
	_ Protector = (*Engine)(nil)
	_ Protector = Hybrid{}
	_ Protector = SingleLPPM{}
)
