package lppm

import (
	"mood/internal/geo"
	"mood/internal/mathx"
	"mood/internal/trace"
)

// DefaultEpsilon is the paper's "medium privacy" Geo-I parameter
// (ε = 0.01 per meter, i.e. a mean displacement of 2/ε = 200 m).
const DefaultEpsilon = 0.01

// GeoI implements Geo-Indistinguishability [4]: every record is
// displaced by exact planar Laplace noise with privacy parameter
// Epsilon (in 1/meters). Lower ε means more noise and more privacy.
type GeoI struct {
	Epsilon float64
}

var _ Mechanism = GeoI{}

// NewGeoI returns Geo-I with the paper's medium-privacy ε.
func NewGeoI() GeoI { return GeoI{Epsilon: DefaultEpsilon} }

// Name implements Mechanism.
func (GeoI) Name() string { return "GeoI" }

// Validate reports an Epsilon Obfuscate refuses: one that is not a
// positive, finite number (a NaN moves every record to NaN, and +Inf
// publishes every record where it was).
func (g GeoI) Validate() error { return positiveFinite("GeoI epsilon", g.Epsilon) }

// Obfuscate implements Mechanism. The polar planar-Laplace sampler draws
// an angle uniformly and a radius from the exact inverse CDF
// C_ε^{-1}(p) = -(1/ε)(W₋₁((p−1)/e) + 1).
func (g GeoI) Obfuscate(rng *mathx.Rand, t trace.Trace) (trace.Trace, error) {
	if t.Empty() {
		return trace.Trace{}, ErrEmptyTrace
	}
	if err := g.Validate(); err != nil {
		return trace.Trace{}, err
	}
	out := records(len(t.Records))
	for i, r := range t.Records {
		radius := mathx.SamplePlanarLaplaceRadius(rng, g.Epsilon)
		bearing := rng.Float64() * 360
		p := geo.Destination(r.Point(), bearing, radius)
		out[i] = trace.At(p, r.TS)
	}
	return trace.Trace{User: t.User, Records: out}, nil
}
