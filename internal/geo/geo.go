// Package geo provides the geodesic substrate used throughout MooD:
// WGS-84 points, great-circle and fast planar distances, local
// east-north projections, destination points and bounding boxes.
//
// All distances are in meters, all angles in degrees unless a name
// says otherwise. The implementations favour the accuracy regime that
// matters for mobility privacy (city scale, < 100 km), where the
// spherical model is accurate to well under 0.5 %.
package geo

import (
	"fmt"
	"math"
)

// EarthRadius is the mean Earth radius in meters (IUGG).
const EarthRadius = 6371000.0

// Point is a WGS-84 coordinate.
type Point struct {
	Lat float64 // degrees, positive north
	Lon float64 // degrees, positive east
}

// String renders the point with enough precision for sub-meter round trips.
func (p Point) String() string {
	return fmt.Sprintf("(%.7f,%.7f)", p.Lat, p.Lon)
}

// Valid reports whether the point lies inside the WGS-84 domain.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

func deg2rad(d float64) float64 { return d * math.Pi / 180 }
func rad2deg(r float64) float64 { return r * 180 / math.Pi }

// Haversine returns the great-circle distance between a and b in meters.
func Haversine(a, b Point) float64 {
	lat1 := deg2rad(a.Lat)
	lat2 := deg2rad(b.Lat)
	dLat := lat2 - lat1
	dLon := deg2rad(b.Lon - a.Lon)

	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadius * math.Asin(math.Sqrt(h))
}

// FastDistance returns the equirectangular approximation of the distance
// between a and b in meters. It is ~5x cheaper than Haversine and accurate
// to better than 0.1 % at city scale; attack inner loops use it.
func FastDistance(a, b Point) float64 {
	x := deg2rad(b.Lon-a.Lon) * math.Cos(deg2rad((a.Lat+b.Lat)/2))
	y := deg2rad(b.Lat - a.Lat)
	return EarthRadius * math.Hypot(x, y)
}

// LatGap is a lower bound on FastDistance(a, b) that costs no
// trigonometry: the north–south leg alone, computed with the same
// operations as FastDistance's. math.Hypot(x, y) returns
// p·sqrt(1+q²) with p = max(|x|, |y|) and q = min/p, in the amd64
// assembly and the portable code alike; the square root of a value
// ≥ 1 is ≥ 1, so Hypot is never below |y|, and multiplying by
// EarthRadius rounds monotonically. LatGap(a, b) ≤ FastDistance(a, b)
// therefore holds float for float, and a nearest-place scan may skip
// any candidate whose LatGap already rules it out without changing
// which candidate it picks. A NaN coordinate makes LatGap NaN, which
// fails every comparison and so never skips.
func LatGap(a, b Point) float64 {
	return EarthRadius * math.Abs(deg2rad(b.Lat-a.Lat))
}

// SurelyWithin reports, without trigonometry, that FastDistance(a, b)
// ≤ r: it is true only when EarthRadius·(|Δλ| + |Δφ|) < r·(1 − 2⁻⁴⁰),
// from the radian differences FastDistance itself computes. Float for
// float: math.Cos never exceeds 1, so FastDistance's east leg x =
// Δλ·cos rounds to |x| ≤ |Δλ| (rounding is monotone); Hypot(x, y) =
// p·sqrt(1+q²) is at most p + p·q = |x| + |y| before its five
// roundings, and those with the sum, the margin's product and the two
// EarthRadius products here and in FastDistance add a relative error
// below 2⁻⁴⁹, which the margin 2⁻⁴⁰ absorbs with room to spare. A
// true result therefore never disagrees with FastDistance(a, b) <= r,
// and a scan may admit on it unmeasured. A NaN makes the sum NaN and an
// infinite difference makes it +Inf; both fail the strict comparison,
// so the caller measures.
func SurelyWithin(a, b Point, r float64) bool {
	l1 := math.Abs(deg2rad(b.Lon-a.Lon)) + math.Abs(deg2rad(b.Lat-a.Lat))
	return EarthRadius*l1 < r*(1-0x1p-40)
}

// Destination returns the point reached by travelling dist meters from p
// along the given bearing (degrees clockwise from north), on the sphere.
// GeoI calls this once per record; a caller that leaves one point
// several times prepares it once with NewOrigin.
func Destination(p Point, bearingDeg, dist float64) Point {
	return NewOrigin(p).Destination(bearingDeg, dist)
}

// Origin is a start point prepared for Destination: the sine and cosine
// of its latitude are computed once, for every bearing and distance
// that leaves from it (TRL draws three assisted points per record).
type Origin struct {
	lon1, sinLat1, cosLat1 float64
}

// NewOrigin prepares p as a start point.
func NewOrigin(p Point) Origin {
	sinLat1, cosLat1 := math.Sincos(deg2rad(p.Lat))
	return Origin{lon1: deg2rad(p.Lon), sinLat1: sinLat1, cosLat1: cosLat1}
}

// Destination is the package-level Destination from o, bit for bit:
// each sine and cosine pair comes from one math.Sincos, whose argument
// reduction and polynomials are math.Sin's and math.Cos's.
func (o Origin) Destination(bearingDeg, dist float64) Point {
	sinBr, cosBr := math.Sincos(deg2rad(bearingDeg))
	sinAd, cosAd := math.Sincos(dist / EarthRadius)

	sinLat2 := o.sinLat1*cosAd + o.cosLat1*sinAd*cosBr
	lat2 := math.Asin(sinLat2)
	y := sinBr * sinAd * o.cosLat1
	x := cosAd - o.sinLat1*sinLat2
	lon2 := o.lon1 + math.Atan2(y, x)

	// Normalize longitude to [-180, 180).
	lon := math.Mod(rad2deg(lon2)+540, 360) - 180
	return Point{Lat: rad2deg(lat2), Lon: lon}
}

// Interpolate returns the point a fraction f of the way from a to b
// (linear in lat/lon, which is adequate at city scale). f is clamped
// to [0, 1].
func Interpolate(a, b Point, f float64) Point {
	if f <= 0 {
		return a
	}
	if f >= 1 {
		return b
	}
	return Point{
		Lat: a.Lat + (b.Lat-a.Lat)*f,
		Lon: a.Lon + (b.Lon-a.Lon)*f,
	}
}

// Projector maps WGS-84 points to a local east-north plane (meters)
// anchored at an origin. The projection is equirectangular, which keeps
// distances and directions accurate to city scale and is exactly
// invertible.
type Projector struct {
	origin Point
	cosLat float64
}

// NewProjector returns a Projector anchored at origin.
func NewProjector(origin Point) *Projector {
	return &Projector{origin: origin, cosLat: math.Cos(deg2rad(origin.Lat))}
}

// ToXY projects p to local east (x) and north (y) meters.
func (pr *Projector) ToXY(p Point) (x, y float64) {
	x = deg2rad(p.Lon-pr.origin.Lon) * pr.cosLat * EarthRadius
	y = deg2rad(p.Lat-pr.origin.Lat) * EarthRadius
	return x, y
}

// ToPoint inverts ToXY.
func (pr *Projector) ToPoint(x, y float64) Point {
	return Point{
		Lat: pr.origin.Lat + rad2deg(y/EarthRadius),
		Lon: pr.origin.Lon + rad2deg(x/(EarthRadius*pr.cosLat)),
	}
}

// Offset translates p by dx meters east and dy meters north using the
// local plane at p. It is the cheap alternative to Destination for small
// displacements.
func Offset(p Point, dx, dy float64) Point {
	return Point{
		Lat: p.Lat + rad2deg(dy/EarthRadius),
		Lon: p.Lon + rad2deg(dx/(EarthRadius*math.Cos(deg2rad(p.Lat)))),
	}
}

// BBox is an axis-aligned bounding box in WGS-84 coordinates.
type BBox struct {
	MinLat, MinLon float64
	MaxLat, MaxLon float64
}

// EmptyBBox returns a box that contains nothing and extends under Union.
func EmptyBBox() BBox {
	return BBox{
		MinLat: math.Inf(1), MinLon: math.Inf(1),
		MaxLat: math.Inf(-1), MaxLon: math.Inf(-1),
	}
}

// Empty reports whether the box contains no points.
func (b BBox) Empty() bool { return b.MinLat > b.MaxLat || b.MinLon > b.MaxLon }

// Extend grows the box to include p and returns the result.
func (b BBox) Extend(p Point) BBox {
	if p.Lat < b.MinLat {
		b.MinLat = p.Lat
	}
	if p.Lat > b.MaxLat {
		b.MaxLat = p.Lat
	}
	if p.Lon < b.MinLon {
		b.MinLon = p.Lon
	}
	if p.Lon > b.MaxLon {
		b.MaxLon = p.Lon
	}
	return b
}

// Center returns the center of the box.
func (b BBox) Center() Point {
	return Point{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
}
