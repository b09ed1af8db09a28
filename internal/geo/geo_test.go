package geo

import (
	"math"
	"testing"
	"testing/quick"

	"mood/internal/mathx"
)

// lyon and paris anchor the known-distance tests.
var (
	lyon  = Point{Lat: 45.7640, Lon: 4.8357}
	paris = Point{Lat: 48.8566, Lon: 2.3522}
)

func TestHaversineKnownDistances(t *testing.T) {
	tests := []struct {
		name     string
		a, b     Point
		wantKM   float64
		tolerant float64 // relative tolerance
	}{
		{"lyon-paris", lyon, paris, 391.5, 0.01},
		{"equator-degree", Point{0, 0}, Point{0, 1}, 111.19, 0.01},
		{"meridian-degree", Point{0, 0}, Point{1, 0}, 111.19, 0.01},
		{"same-point", lyon, lyon, 0, 0},
		{"antipodal", Point{0, 0}, Point{0, 180}, math.Pi * EarthRadius / 1000, 0.001},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Haversine(tt.a, tt.b) / 1000
			if tt.wantKM == 0 {
				if got != 0 {
					t.Fatalf("Haversine = %v km, want 0", got)
				}
				return
			}
			if rel := math.Abs(got-tt.wantKM) / tt.wantKM; rel > tt.tolerant {
				t.Fatalf("Haversine = %v km, want %v km (rel err %v)", got, tt.wantKM, rel)
			}
		})
	}
}

func TestHaversineSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{Lat: math.Mod(lat1, 80), Lon: math.Mod(lon1, 180)}
		b := Point{Lat: math.Mod(lat2, 80), Lon: math.Mod(lon2, 180)}
		d1 := Haversine(a, b)
		d2 := Haversine(b, a)
		return math.Abs(d1-d2) < 1e-6 && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFastDistanceMatchesHaversineAtCityScale(t *testing.T) {
	// Points within ~20 km of Lyon: the equirectangular error must stay
	// below 0.2 %.
	offsets := []struct{ dx, dy float64 }{
		{100, 0}, {0, 100}, {5000, 5000}, {-12000, 3000}, {20000, -20000},
	}
	for _, o := range offsets {
		p := Offset(lyon, o.dx, o.dy)
		h := Haversine(lyon, p)
		f := FastDistance(lyon, p)
		if h == 0 {
			continue
		}
		if rel := math.Abs(h-f) / h; rel > 0.002 {
			t.Errorf("offset (%v,%v): haversine %v fast %v rel %v", o.dx, o.dy, h, f, rel)
		}
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	for _, dist := range []float64{10, 500, 5000, 50000} {
		for _, bearing := range []float64{0, 45, 90, 180, 270, 359} {
			q := Destination(lyon, bearing, dist)
			got := Haversine(lyon, q)
			if math.Abs(got-dist) > 0.001*dist+0.01 {
				t.Errorf("Destination(%v m, %v deg): distance back %v", dist, bearing, got)
			}
		}
	}
}

// oracleDestination is Destination with every sine and cosine computed
// where the formula names it.
func oracleDestination(p Point, bearingDeg, dist float64) Point {
	br := deg2rad(bearingDeg)
	lat1 := deg2rad(p.Lat)
	lon1 := deg2rad(p.Lon)
	ad := dist / EarthRadius
	sinLat2 := math.Sin(lat1)*math.Cos(ad) + math.Cos(lat1)*math.Sin(ad)*math.Cos(br)
	lat2 := math.Asin(sinLat2)
	y := math.Sin(br) * math.Sin(ad) * math.Cos(lat1)
	x := math.Cos(ad) - math.Sin(lat1)*sinLat2
	lon2 := lon1 + math.Atan2(y, x)
	lon := math.Mod(rad2deg(lon2)+540, 360) - 180
	return Point{Lat: rad2deg(lat2), Lon: lon}
}

// TestDestinationMatchesOracleBits: hoisting the repeated sines and
// cosines leaves every published coordinate bit-identical.
func TestDestinationMatchesOracleBits(t *testing.T) {
	f := func(lat, lon, bearing, dist float64) bool {
		p := Point{Lat: math.Mod(lat, 90), Lon: math.Mod(lon, 180)}
		d := math.Mod(math.Abs(dist), 50000)
		got, want := Destination(p, bearing, d), oracleDestination(p, bearing, d)
		return math.Float64bits(got.Lat) == math.Float64bits(want.Lat) &&
			math.Float64bits(got.Lon) == math.Float64bits(want.Lon)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// initialBearing is the initial bearing (degrees in [0,360)) of the
// great-circle path from a to b: the oracle TestDestinationBearing
// checks Destination's heading against.
func initialBearing(a, b Point) float64 {
	lat1 := deg2rad(a.Lat)
	lat2 := deg2rad(b.Lat)
	dLon := deg2rad(b.Lon - a.Lon)
	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	return math.Mod(rad2deg(math.Atan2(y, x))+360, 360)
}

func TestDestinationBearing(t *testing.T) {
	q := Destination(lyon, 90, 10000)
	br := initialBearing(lyon, q)
	if math.Abs(br-90) > 0.5 {
		t.Fatalf("bearing = %v, want ~90", br)
	}
}

func TestInterpolate(t *testing.T) {
	mid := Interpolate(lyon, paris, 0.5)
	dl := Haversine(lyon, mid)
	dp := Haversine(mid, paris)
	if math.Abs(dl-dp) > 0.005*(dl+dp) { // linear interpolation: symmetric to ~0.5 % at this range
		t.Fatalf("midpoint not symmetric: %v vs %v", dl, dp)
	}
	if got := Interpolate(lyon, paris, 0); got != lyon {
		t.Fatalf("f=0 should return start, got %v", got)
	}
	if got := Interpolate(lyon, paris, 1); got != paris {
		t.Fatalf("f=1 should return end, got %v", got)
	}
	if got := Interpolate(lyon, paris, -3); got != lyon {
		t.Fatalf("f<0 should clamp to start, got %v", got)
	}
}

func TestProjectorRoundTrip(t *testing.T) {
	pr := NewProjector(lyon)
	f := func(dx, dy float64) bool {
		dx = math.Mod(dx, 30000)
		dy = math.Mod(dy, 30000)
		p := Offset(lyon, dx, dy)
		x, y := pr.ToXY(p)
		back := pr.ToPoint(x, y)
		return Haversine(p, back) < 0.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProjectorDistancePreservation(t *testing.T) {
	pr := NewProjector(lyon)
	p := Offset(lyon, 3000, -4000)
	x, y := pr.ToXY(p)
	planar := math.Hypot(x, y)
	sphere := Haversine(lyon, p)
	if rel := math.Abs(planar-sphere) / sphere; rel > 0.005 {
		t.Fatalf("projection distorts distance: planar %v sphere %v", planar, sphere)
	}
}

func TestOffsetMagnitude(t *testing.T) {
	p := Offset(lyon, 1000, 0)
	if d := Haversine(lyon, p); math.Abs(d-1000) > 5 {
		t.Fatalf("Offset east 1000m -> distance %v", d)
	}
	p = Offset(lyon, 0, -2500)
	if d := Haversine(lyon, p); math.Abs(d-2500) > 5 {
		t.Fatalf("Offset south 2500m -> distance %v", d)
	}
}

func TestBBox(t *testing.T) {
	b := EmptyBBox()
	if !b.Empty() {
		t.Fatal("EmptyBBox not empty")
	}
	b = b.Extend(lyon)
	b = b.Extend(paris)
	if b.Empty() {
		t.Fatal("extended box empty")
	}
	want := BBox{
		MinLat: math.Min(lyon.Lat, paris.Lat), MaxLat: math.Max(lyon.Lat, paris.Lat),
		MinLon: math.Min(lyon.Lon, paris.Lon), MaxLon: math.Max(lyon.Lon, paris.Lon),
	}
	if b != want {
		t.Fatalf("box = %+v, want the bounds of its defining points %+v", b, want)
	}
	c := b.Center()
	if c.Lat < b.MinLat || c.Lat > b.MaxLat {
		t.Fatal("center outside box")
	}
}

func TestPointValid(t *testing.T) {
	tests := []struct {
		p    Point
		want bool
	}{
		{lyon, true},
		{Point{Lat: 91, Lon: 0}, false},
		{Point{Lat: 0, Lon: -181}, false},
		{Point{Lat: math.NaN(), Lon: 0}, false},
		{Point{Lat: -90, Lon: 180}, true},
	}
	for _, tt := range tests {
		if got := tt.p.Valid(); got != tt.want {
			t.Errorf("Valid(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

// TestLatGapNeverExceedsFastDistance: the nearest-place scans skip a
// candidate on LatGap alone, which is sound only if LatGap(a, b) ≤
// FastDistance(a, b) float for float. Over a million pairs — random
// city-scale and world-scale pairs, equal latitudes, latitude gaps
// below one ulp, points near the poles, both hemispheres — it must
// hold exactly, and equal latitudes must give a gap of zero.
func TestLatGapNeverExceedsFastDistance(t *testing.T) {
	rng := mathx.NewRand(61)
	lat := func() float64 { return rng.Float64()*179.8 - 89.9 }
	lon := func() float64 { return rng.Float64()*360 - 180 }
	pole := func() float64 { return math.Copysign(89.9-rng.Float64()*1e-3, rng.Float64()-0.5) }
	check := func(a, b Point) {
		t.Helper()
		lb, d := LatGap(a, b), FastDistance(a, b)
		if !(lb <= d) {
			t.Fatalf("LatGap(%v, %v) = %v > FastDistance = %v", a, b, lb, d)
		}
		if a.Lat == b.Lat && lb != 0 {
			t.Fatalf("LatGap(%v, %v) = %v for equal latitudes", a, b, lb)
		}
	}
	const rounds = 1 << 18 // seven pairs a round: 1.8 M pairs
	for i := 0; i < rounds; i++ {
		a := Point{Lat: lat(), Lon: lon()}
		// World scale: any two points.
		check(a, Point{Lat: lat(), Lon: lon()})
		// City scale: within ~1 km, where the scans prune.
		check(a, Point{Lat: a.Lat + (rng.Float64()-0.5)*0.02, Lon: a.Lon + (rng.Float64()-0.5)*0.02})
		// Equal latitudes, a one-ulp gap, and Δs around one ulp.
		check(a, Point{Lat: a.Lat, Lon: lon()})
		check(a, Point{Lat: math.Nextafter(a.Lat, 90), Lon: a.Lon + (rng.Float64()-0.5)*1e-12})
		check(a, Point{Lat: a.Lat + (rng.Float64()-0.5)*1e-14, Lon: a.Lon + (rng.Float64()-0.5)*1e-12})
		// Near either pole, where cos(lat) shrinks the east–west leg.
		p := Point{Lat: pole(), Lon: lon()}
		check(p, Point{Lat: pole(), Lon: lon()})
		check(p, Point{Lat: -p.Lat, Lon: p.Lon})
	}
}

// TestSurelyWithinNeverOverstates: Extract and BuildFromPOIs admit a
// record on SurelyWithin without measuring it, which is sound only if a
// true result implies FastDistance(a, b) <= r float for float. Over a
// million pairs — city and world scale, equal points, ±89.9°, both
// hemispheres, across the antimeridian — at radii on the boundary, one
// ulp either side of it and at the margin, a true result must never
// disagree; NaN coordinates and radii must give false; and below 40° a
// radius of 2.1× the distance must be admitted (L1 ≤ √2·L2 and cos ≥
// 0.76 there), so the bound decides what the scans need it to.
func TestSurelyWithinNeverOverstates(t *testing.T) {
	rng := mathx.NewRand(67)
	lat := func() float64 { return rng.Float64()*179.8 - 89.9 }
	lon := func() float64 { return rng.Float64()*360 - 180 }
	pairs, admitted := 0, 0
	check := func(a, b Point, r float64) {
		t.Helper()
		pairs++
		if !SurelyWithin(a, b, r) {
			return
		}
		admitted++
		if d := FastDistance(a, b); !(d <= r) {
			t.Fatalf("SurelyWithin(%v, %v, %v) but FastDistance = %v", a, b, r, d)
		}
	}
	radii := func(a, b Point) {
		t.Helper()
		d := FastDistance(a, b)
		for _, r := range []float64{d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)),
			d * (1 + 0x1p-40), d * (1 + 0x1p-38), d * 1.5, 2.1 * d, 100, math.Inf(1)} {
			check(a, b, r)
		}
	}
	const rounds = 1 << 14 // seven pair shapes at nine radii a round: 1.03 M pairs
	for i := 0; i < rounds; i++ {
		a := Point{Lat: lat(), Lon: lon()}
		radii(a, Point{Lat: lat(), Lon: lon()})
		radii(a, Point{Lat: a.Lat + (rng.Float64()-0.5)*0.004, Lon: a.Lon + (rng.Float64()-0.5)*0.004})
		radii(a, a)
		radii(a, Point{Lat: math.Nextafter(a.Lat, 90), Lon: math.Nextafter(a.Lon, 180)})
		pole := math.Copysign(89.9, rng.Float64()-0.5)
		radii(Point{Lat: pole, Lon: lon()}, Point{Lat: pole - math.Copysign(rng.Float64()*1e-3, pole), Lon: lon()})
		radii(Point{Lat: lat(), Lon: 180 - rng.Float64()*1e-3}, Point{Lat: lat(), Lon: -180 + rng.Float64()*1e-3})
		radii(a, Point{Lat: -a.Lat, Lon: a.Lon})

		// Below 40°, 2.1× the distance is always admitted.
		c := Point{Lat: rng.Float64()*80 - 40, Lon: lon()}
		e := Point{Lat: c.Lat + (rng.Float64()-0.5)*0.004, Lon: c.Lon + (rng.Float64()-0.5)*0.004}
		if d := FastDistance(c, e); d > 0 && !SurelyWithin(c, e, 2.1*d) {
			t.Fatalf("SurelyWithin(%v, %v, 2.1 × %v) is false", c, e, d)
		}
	}
	nan := math.NaN()
	for _, tt := range []struct {
		a, b Point
		r    float64
	}{
		{Point{nan, 0}, Point{0, 0}, math.Inf(1)},
		{Point{0, nan}, Point{0, 0}, 1e9},
		{Point{0, 0}, Point{nan, nan}, 1e9},
		{Point{0, 0}, Point{0, 0}, nan},
		{Point{0, math.Inf(1)}, Point{0, 0}, math.Inf(1)},
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{0, 0}, -1},
	} {
		pairs++
		if SurelyWithin(tt.a, tt.b, tt.r) {
			t.Errorf("SurelyWithin(%v, %v, %v) = true", tt.a, tt.b, tt.r)
		}
	}
	if pairs < 1_000_000 || admitted < pairs/4 {
		t.Fatalf("%d pairs, %d admitted: the sweep decides too little", pairs, admitted)
	}
}

// FuzzDestination: several bearings and distances from one Origin land
// on Destination's point and on the oracle's, bit for bit. A NaN
// coordinate matches any NaN: math.Sin returns a NaN argument as it is,
// payload and all, where math.Sincos returns the canonical NaN.
func FuzzDestination(f *testing.F) {
	f.Add(45.764, 4.8357, 0.0, 10.0, 137.5, 1000.0, 359.9, 50000.0)
	f.Add(89.9, 179.9999, 90.0, 1e7, 270.0, 0.5, -45.0, 3e6)
	f.Add(0.0, -180.0, 1e300, 1.0, -0.0, -1000.0, 720.0, 0.0)
	f.Add(-90.0, 0.0, 5e-324, math.Inf(1), math.NaN(), 200.0, 180.0, 1e-310)
	f.Fuzz(func(t *testing.T, lat, lon, b1, d1, b2, d2, b3, d3 float64) {
		p := Point{Lat: lat, Lon: lon}
		o := NewOrigin(p)
		for _, leg := range [][2]float64{{b1, d1}, {b2, d2}, {b3, d3}} {
			got := o.Destination(leg[0], leg[1])
			for _, want := range []Point{Destination(p, leg[0], leg[1]), oracleDestination(p, leg[0], leg[1])} {
				if !sameBits(got.Lat, want.Lat) || !sameBits(got.Lon, want.Lon) {
					t.Fatalf("from %v, bearing %v, dist %v: Origin.Destination %v, want %v", p, leg[0], leg[1], got, want)
				}
			}
		}
	})
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzSurelyWithin: on arbitrary coordinates and radii, a true
// SurelyWithin never disagrees with FastDistance.
func FuzzSurelyWithin(f *testing.F) {
	f.Add(45.764, 4.8357, 45.765, 4.836, 200.0)
	f.Add(89.9, 179.9999, 89.9, -179.9999, 1e7)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(-33.0, 151.0, -33.0, 151.0, 5e-324)
	f.Add(1e-310, 0.0, 0.0, 3e-320, 1e-300)
	f.Add(1e300, -1e300, 0.0, 0.0, math.Inf(1))
	f.Fuzz(func(t *testing.T, aLat, aLon, bLat, bLon, r float64) {
		a, b := Point{Lat: aLat, Lon: aLon}, Point{Lat: bLat, Lon: bLon}
		if SurelyWithin(a, b, r) {
			if d := FastDistance(a, b); !(d <= r) {
				t.Fatalf("SurelyWithin(%v, %v, %v) but FastDistance = %v", a, b, r, d)
			}
		}
	})
}
