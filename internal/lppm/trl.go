package lppm

import (
	"mood/internal/geo"
	"mood/internal/mathx"
	"mood/internal/trace"
)

// DefaultTRLRadius is the paper's TRL range r (1 km).
const DefaultTRLRadius = 1000.0

// TRL implements the Trilateration mechanism [18]: every real location
// is replaced by NumAssisted "assisted locations" drawn in a range of
// Radius meters around it. In the LSS scenario the provider only ever
// sees the assisted locations; for dataset publication the obfuscated
// trace therefore contains the assisted locations (same timestamp as the
// real record they replace) and never the real one.
type TRL struct {
	// Radius is the range r within which assisted locations are drawn.
	Radius float64
	// NumAssisted is the number of assisted locations per record
	// (3 in the paper, the minimum for trilateration).
	NumAssisted int
}

var _ Mechanism = TRL{}

// NewTRL returns TRL with the paper's parameters (r = 1 km, 3 points).
func NewTRL() TRL { return TRL{Radius: DefaultTRLRadius, NumAssisted: 3} }

// Name implements Mechanism.
func (TRL) Name() string { return "TRL" }

// Validate reports a Radius Obfuscate refuses: one that is not a
// positive, finite number.
func (t TRL) Validate() error { return positiveFinite("TRL radius", t.Radius) }

// Obfuscate implements Mechanism.
func (t TRL) Obfuscate(rng *mathx.Rand, tr trace.Trace) (trace.Trace, error) {
	if tr.Empty() {
		return trace.Trace{}, ErrEmptyTrace
	}
	if err := t.Validate(); err != nil {
		return trace.Trace{}, err
	}
	n := t.NumAssisted
	if n <= 0 {
		n = 3
	}
	out := records(len(tr.Records) * n)[:0]
	for _, r := range tr.Records {
		o := geo.NewOrigin(r.Point())
		for k := 0; k < n; k++ {
			// "In a range of r": distances concentrate toward r so the
			// intersection geometry stays well-conditioned (the three
			// circles must not collapse onto the target).
			dist := t.Radius * (0.5 + 0.5*rng.Float64())
			bearing := rng.Float64() * 360
			out = append(out, trace.At(o.Destination(bearing, dist), r.TS))
		}
	}
	return trace.Trace{User: tr.User, Records: out}, nil
}
