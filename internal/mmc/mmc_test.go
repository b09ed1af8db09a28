package mmc

import (
	"math"
	"testing"
	"time"

	"mood/internal/geo"
	"mood/internal/poi"
	"mood/internal/trace"
)

var base = geo.Point{Lat: 45.7640, Lon: 4.8357}

// commuter builds a trace that alternates dwells between the given
// places, cycling through them days times. Sampling every 5 minutes,
// each dwell lasts 2 hours.
func commuter(user string, days int, places ...geo.Point) trace.Trace {
	const step = 300
	var rs []trace.Record
	ts := int64(0)
	for d := 0; d < days; d++ {
		for _, p := range places {
			for i := 0; i < 24; i++ { // 2 h dwell
				rs = append(rs, trace.At(geo.Offset(p, float64(i%3)*5, 0), ts))
				ts += step
			}
			ts += 1800 // half-hour travel gap
		}
	}
	return trace.New(user, rs)
}

func extractor() poi.Extractor { return poi.NewExtractor() }

// statsProx is the stats-prox distance between two chains, unbounded.
func statsProx(a, b Chain) float64 {
	return StatsProxBounded(a, b, a.Stationary(), b.Stationary(), math.Inf(1))
}

func TestBuildBasicChain(t *testing.T) {
	home := base
	work := geo.Offset(base, 4000, 0)
	c := Build(extractor(), commuter("u", 5, home, work))
	if c.Empty() {
		t.Fatal("chain is empty")
	}
	if c.NumStates() != 2 {
		t.Fatalf("states = %d, want 2", c.NumStates())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Alternating dwells: transitions should be strongly cross-state.
	for i := 0; i < 2; i++ {
		if c.Trans[i][1-i] < 0.8 {
			t.Fatalf("cross transition %d->%d = %v, want ~1", i, 1-i, c.Trans[i][1-i])
		}
	}
}

func TestBuildEmptyTrace(t *testing.T) {
	c := Build(extractor(), trace.Trace{})
	if !c.Empty() {
		t.Fatal("chain of empty trace must be empty")
	}
	if s := c.Stationary(); s != nil {
		t.Fatalf("stationary of empty chain = %v", s)
	}
}

func TestStationaryIsFixedPoint(t *testing.T) {
	home := base
	work := geo.Offset(base, 4000, 0)
	gym := geo.Offset(base, 0, 3000)
	c := Build(extractor(), commuter("u", 6, home, work, gym, work))
	if c.Empty() {
		t.Fatal("empty chain")
	}
	pi := c.Stationary()
	var sum float64
	for _, p := range pi {
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("stationary sums to %v", sum)
	}
	// pi * P must equal pi.
	n := c.NumStates()
	for j := 0; j < n; j++ {
		var v float64
		for i := 0; i < n; i++ {
			v += pi[i] * c.Trans[i][j]
		}
		if math.Abs(v-pi[j]) > 1e-6 {
			t.Fatalf("stationary not fixed at %d: %v vs %v", j, v, pi[j])
		}
	}
}

func TestDistancesIdentity(t *testing.T) {
	c := Build(extractor(), commuter("u", 5, base, geo.Offset(base, 4000, 0)))
	pi := c.Stationary()
	if d := directedStationary(c, c, pi); d > 1 {
		t.Fatalf("self stationary distance = %v", d)
	}
	if d := directedProximity(c, c, pi); d > 1e-9 {
		t.Fatalf("self proximity distance = %v", d)
	}
	if d := statsProx(c, c); d > 0.01 {
		t.Fatalf("self stats-prox = %v", d)
	}
}

func TestDistancesDiscriminate(t *testing.T) {
	me := Build(extractor(), commuter("me", 5, base, geo.Offset(base, 4000, 0)))
	// Same habits, second half of the observation period, tiny jitter.
	meLater := Build(extractor(), commuter("me2", 5, geo.Offset(base, 30, 0), geo.Offset(base, 4030, 0)))
	// Different person across town.
	other := Build(extractor(), commuter("other", 5,
		geo.Offset(base, 12000, 9000), geo.Offset(base, 15000, 12000)))

	dSelf := statsProx(me, meLater)
	dOther := statsProx(me, other)
	if dSelf >= dOther {
		t.Fatalf("stats-prox does not discriminate: self %v vs other %v", dSelf, dOther)
	}
}

func TestDistancesEmptyChains(t *testing.T) {
	c := Build(extractor(), commuter("u", 5, base, geo.Offset(base, 4000, 0)))
	var empty Chain
	if !math.IsInf(statsProx(c, empty), 1) {
		t.Fatal("distance to empty chain must be +Inf")
	}
	if !math.IsInf(statsProx(empty, c), 1) {
		t.Fatal("distance from empty chain must be +Inf")
	}
	if !math.IsInf(statsProx(empty, empty), 1) {
		t.Fatal("stats-prox of empty chains must be +Inf")
	}
}

func TestValidateCatchesBadMatrix(t *testing.T) {
	c := Build(extractor(), commuter("u", 5, base, geo.Offset(base, 4000, 0)))
	c.Trans[0][0] = 0.9 // break row sum
	if err := c.Validate(); err == nil {
		t.Fatal("broken row sum must fail validation")
	}
	bad := Chain{States: make([]poi.POI, 2), Trans: [][]float64{{1}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("wrong shape must fail validation")
	}
}

func TestSelfLoopForAbsorbingState(t *testing.T) {
	// A single dwell yields one POI and no transitions; the matrix must
	// still be stochastic (self-loop).
	var rs []trace.Record
	for i := 0; i < 30; i++ {
		rs = append(rs, trace.At(base, int64(i)*300))
	}
	c := Build(poi.Extractor{MaxDiameter: 200, MinDwell: 30 * time.Minute, MergeDist: 100},
		trace.New("u", rs))
	if c.Empty() {
		t.Fatal("expected one POI")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Trans[0][0] != 1 {
		t.Fatalf("absorbing state self-loop = %v", c.Trans[0][0])
	}
}
