// Package lppm implements the Location Privacy Protection Mechanisms of
// the paper — Geo-Indistinguishability (Geo-I [4]), Trilateration
// (TRL [18]) and HeatMap Confusion (HMC [23]) — together with the
// composition machinery that is the heart of MooD: ordered chains of
// mechanisms applied as function composition (Eq. 3) and the exhaustive
// enumeration of all |C| = Σ n!/(n−i)! arrangements (§3.1).
package lppm

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"mood/internal/mathx"
	"mood/internal/trace"
)

// ErrEmptyTrace is returned when a mechanism is applied to a trace with
// no records.
var ErrEmptyTrace = errors.New("lppm: empty trace")

// ErrEmptyChain is returned when a chain of no mechanisms is applied.
var ErrEmptyChain = errors.New("lppm: empty chain")

// Mechanism obfuscates a mobility trace (the paper's L : T ↦ L(Υ, T)).
// Implementations must not mutate the input trace, nor keep it once
// Obfuscate returns (the engine reuses the buffers of the outputs it
// does not publish); stochastic mechanisms draw exclusively from the
// supplied random stream so callers control reproducibility.
type Mechanism interface {
	// Name identifies the mechanism in reports and composition labels.
	Name() string
	// Obfuscate returns a protected version of t.
	Obfuscate(rng *mathx.Rand, t trace.Trace) (trace.Trace, error)
}

// Deterministic is implemented by a mechanism that can declare it draws
// nothing from its random stream, so that its output is a function of
// its input alone: a caller may then hand it any stream, nil included,
// and reuse one output for one input. A wrapper forwards the answer of
// the mechanism it wraps.
type Deterministic interface {
	Deterministic() bool
}

// IsDeterministic reports whether m declares that it draws no
// randomness.
func IsDeterministic(m Mechanism) bool {
	d, ok := m.(Deterministic)
	return ok && d.Deterministic()
}

// positiveFinite refuses a parameter that is not a positive, finite
// number; a NaN fails every comparison, so it is refused too.
func positiveFinite(what string, x float64) error {
	if !(x > 0) || math.IsInf(x, 1) {
		return fmt.Errorf("lppm: %s %v must be positive and finite", what, x)
	}
	return nil
}

// Chain is an ordered composition of mechanisms, applied first-to-last:
// Chain{A, B}.Obfuscate(t) computes B(A(t)), i.e. the paper's
// C = B ∘ A (Eq. 3).
type Chain struct {
	Mechs []Mechanism
}

var _ Mechanism = Chain{}

// Name implements Mechanism; it joins member names with "→" in
// application order.
func (c Chain) Name() string {
	names := make([]string, len(c.Mechs))
	for i, m := range c.Mechs {
		names[i] = m.Name()
	}
	return strings.Join(names, "→")
}

// Len returns the number of composed mechanisms.
func (c Chain) Len() int { return len(c.Mechs) }

// Obfuscate implements Mechanism.
func (c Chain) Obfuscate(rng *mathx.Rand, t trace.Trace) (trace.Trace, error) {
	if len(c.Mechs) == 0 {
		return trace.Trace{}, ErrEmptyChain
	}
	cur := t
	for _, m := range c.Mechs {
		next, err := m.Obfuscate(rng, cur)
		if err != nil {
			return trace.Trace{}, fmt.Errorf("lppm: chain stage %s: %w", m.Name(), err)
		}
		cur = next
	}
	return cur, nil
}

// CompositionsOnly returns the strict compositions C − L (length >= 2):
// the paper's composition set C, of cardinality Σ_{i=1..n} n!/(n−i)!
// (15 for n = 3), less its n singletons, which Algorithm 1 tries first
// as the plain mechanisms.
func CompositionsOnly(mechs []Mechanism) []Chain {
	var out []Chain
	for size := 2; size <= len(mechs); size++ {
		out = append(out, arrangements(mechs, size)...)
	}
	return out
}

// arrangements returns all ordered selections of exactly size distinct
// mechanisms, in lexicographic index order for determinism.
func arrangements(mechs []Mechanism, size int) []Chain {
	var out []Chain
	used := make([]bool, len(mechs))
	cur := make([]Mechanism, 0, size)
	var rec func()
	rec = func() {
		if len(cur) == size {
			chain := make([]Mechanism, size)
			copy(chain, cur)
			out = append(out, Chain{Mechs: chain})
			return
		}
		for i, m := range mechs {
			if used[i] {
				continue
			}
			used[i] = true
			cur = append(cur, m)
			rec()
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	rec()
	return out
}

// Identity is the no-op mechanism; the evaluation harness uses it as the
// "no-LPPM" row of Figures 6 and 7.
type Identity struct{}

var _ Mechanism = Identity{}

// Name implements Mechanism.
func (Identity) Name() string { return "none" }

// Obfuscate implements Mechanism; it returns a deep copy so downstream
// stages can never alias the raw data.
func (Identity) Obfuscate(_ *mathx.Rand, t trace.Trace) (trace.Trace, error) {
	return t.Clone(), nil
}
