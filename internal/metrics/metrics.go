// Package metrics implements the paper's evaluation metrics: the
// spatio-temporal distortion utility metric (STD, Eq. 8), the data-loss
// ratio (Eq. 7) and the distortion bands of Figure 9.
package metrics

import (
	"sort"

	"mood/internal/geo"
	"mood/internal/trace"
)

// STD computes the spatio-temporal distortion between an original trace
// T and its obfuscated version T′ (Eq. 8): the mean distance between
// every record of T′ and its temporal projection onto T. The temporal
// projection of x = (lat, lon, tₓ) is the linear interpolation of the
// two records of T bracketing tₓ; records of T′ outside T's time span
// project onto T's nearest endpoint.
//
// Lower is better; 0 means the obfuscated trace never leaves the
// original path. Returns 0 when either trace is empty (no distortion is
// measurable).
func STD(original, obfuscated trace.Trace) float64 {
	if original.Empty() || obfuscated.Empty() {
		return 0
	}
	var sum float64
	for _, x := range obfuscated.Records {
		sum += geo.FastDistance(x.Point(), TemporalProjection(original, x.TS))
	}
	return sum / float64(obfuscated.Len())
}

// TemporalProjection returns the expected position on t at time ts,
// interpolating between the bracketing records (and clamping to the
// first/last record outside the span).
func TemporalProjection(t trace.Trace, ts int64) geo.Point {
	rs := t.Records
	n := len(rs)
	if n == 0 {
		return geo.Point{}
	}
	if ts <= rs[0].TS {
		return rs[0].Point()
	}
	if ts >= rs[n-1].TS {
		return rs[n-1].Point()
	}
	// Find i with rs[i].TS <= ts <= rs[i+1].TS.
	i := sort.Search(n, func(k int) bool { return rs[k].TS > ts }) - 1
	a, b := rs[i], rs[i+1]
	if b.TS == a.TS {
		return a.Point()
	}
	f := float64(ts-a.TS) / float64(b.TS-a.TS)
	return geo.Interpolate(a.Point(), b.Point(), f)
}

// Band classifies a distortion value into the four ranges of Figure 9.
type Band int

// Distortion bands of Figure 9.
const (
	BandLow     Band = iota + 1 // < 500 m
	BandMedium                  // < 1000 m
	BandHigh                    // < 5000 m
	BandExtreme                 // >= 5000 m
)

// String implements fmt.Stringer.
func (b Band) String() string {
	switch b {
	case BandLow:
		return "<500m"
	case BandMedium:
		return "<1000m"
	case BandHigh:
		return "<5000m"
	case BandExtreme:
		return ">=5000m"
	default:
		return "unknown"
	}
}

// BandOf returns the band of a distortion value in meters.
func BandOf(std float64) Band {
	switch {
	case std < 500:
		return BandLow
	case std < 1000:
		return BandMedium
	case std < 5000:
		return BandHigh
	default:
		return BandExtreme
	}
}

// Bands lists the bands in ascending distortion order.
func Bands() []Band { return []Band{BandLow, BandMedium, BandHigh, BandExtreme} }

// Utility is the interface the Best-LPPM-Selection stage optimises over
// (the paper's metric M). Better reports whether distortion a beats b.
type Utility interface {
	// Name identifies the metric in reports.
	Name() string
	// Measure scores an obfuscation of original; interpretation is
	// metric-specific.
	Measure(original, obfuscated trace.Trace) float64
	// Better reports whether score a is preferable to score b.
	Better(a, b float64) bool
}

// STDUtility is the paper's utility metric: spatio-temporal distortion,
// lower is better.
type STDUtility struct{}

var _ Utility = STDUtility{}

// Name implements Utility.
func (STDUtility) Name() string { return "STD" }

// Measure implements Utility.
func (STDUtility) Measure(original, obfuscated trace.Trace) float64 {
	return STD(original, obfuscated)
}

// Better implements Utility (lower distortion wins).
func (STDUtility) Better(a, b float64) bool { return a < b }
