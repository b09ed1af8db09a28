package synth

import (
	"time"

	"mood/internal/geo"
	"mood/internal/mathx"
	"mood/internal/trace"
)

// persona is the behavioural program of one phone user.
type persona struct {
	home     geo.Point
	work     geo.Point
	hasWork  bool
	leisure  []geo.Point // personal subset of city venues
	workHour float64     // nominal start of the work day
	workLen  float64     // hours at work
	pOuting  float64     // probability of an evening outing
	speed    float64     // travel speed m/s
	drifts   bool        // habits change at mid-period
}

func newPersona(cfg Config, c *city, rng *mathx.Rand) persona {
	p := persona{
		home:     randNear(rng, mathx.Choice(rng, c.homeClusters), cfg.ClusterRadius),
		workHour: 8 + rng.Float64()*2.5,
		workLen:  7 + rng.Float64()*3,
		pOuting:  0.25 + rng.Float64()*0.5,
		speed:    6 + rng.Float64()*8, // mixed walk/transit/car
		drifts:   rng.Float64() < cfg.DriftFraction,
	}
	// ~85 % of users have a fixed work/study place.
	if rng.Float64() < 0.85 {
		p.hasWork = true
		p.work = randNear(rng, mathx.Choice(rng, c.workClusters), cfg.ClusterRadius)
	}
	nLeisure := 2 + rng.Intn(3)
	for i := 0; i < nLeisure; i++ {
		p.leisure = append(p.leisure, mathx.Choice(rng, c.venues))
	}
	return p
}

// redraw rebuilds the persona's anchors for the drifted second half:
// the user moves house and changes workplace/leisure set.
func (p *persona) redraw(cfg Config, c *city, rng *mathx.Rand) {
	p.home = randNear(rng, mathx.Choice(rng, c.homeClusters), cfg.ClusterRadius)
	if p.hasWork {
		p.work = randNear(rng, mathx.Choice(rng, c.workClusters), cfg.ClusterRadius)
	}
	for i := range p.leisure {
		p.leisure[i] = mathx.Choice(rng, c.venues)
	}
}

// simulatePhoneUser runs the persona day by day and samples its position
// into s.
func simulatePhoneUser(cfg Config, c *city, s *sampler, rng *mathx.Rand) {
	p := newPersona(cfg, c, rng)

	half := cfg.Days / 2
	for day := 0; day < cfg.Days; day++ {
		if p.drifts && day == half {
			p.redraw(cfg, c, rng)
		}
		simulateDay(cfg, &p, s, rng, day)
	}
}

// simulateDay appends one day of movement to the sampler.
func simulateDay(cfg Config, p *persona, s *sampler, rng *mathx.Rand, day int) {
	dayStart := Epoch + int64(day)*86400
	weekday := ((day % 7) != 5) && ((day % 7) != 6) // Epoch is a Tuesday; close enough for scheduling

	// Morning at home. Phones sample sparsely overnight; we start the
	// sampled day at ~6:30.
	wake := 6.3 + rng.Float64()*1.2
	cur := p.home
	s.dwell(cur, dayStart+hourToSec(wake-0.6), dayStart+hourToSec(wake))

	if p.hasWork && weekday {
		start := p.workHour + rng.NormFloat64()*0.3
		end := start + p.workLen + rng.NormFloat64()*0.5
		s.travel(cur, p.work, dayStart+hourToSec(start)-travelSec(cur, p.work, p.speed), p.speed)
		cur = p.work
		s.dwell(cur, dayStart+hourToSec(start), dayStart+hourToSec(end))

		// Lunch outing near work on some days.
		if rng.Float64() < 0.3 {
			lunch := geo.Offset(p.work, rng.NormFloat64()*300, rng.NormFloat64()*300)
			t0 := dayStart + hourToSec(start+3.5)
			s.travel(cur, lunch, t0, 1.4)
			s.dwell(lunch, t0+travelSec(cur, lunch, 1.4), t0+travelSec(cur, lunch, 1.4)+2400)
			s.travel(lunch, p.work, t0+travelSec(cur, lunch, 1.4)+2400, 1.4)
		}

		// Evening: outing or straight home.
		evening := dayStart + hourToSec(end)
		if len(p.leisure) > 0 && rng.Float64() < p.pOuting {
			venue := mathx.Choice(rng, p.leisure)
			s.travel(cur, venue, evening, p.speed)
			arr := evening + travelSec(cur, venue, p.speed)
			dur := int64(3600 + rng.Intn(7200))
			s.dwell(venue, arr, arr+dur)
			s.travel(venue, p.home, arr+dur, p.speed)
			cur = p.home
			s.dwell(cur, arr+dur+travelSec(venue, p.home, p.speed), dayStart+hourToSec(23.2))
		} else {
			s.travel(cur, p.home, evening, p.speed)
			cur = p.home
			s.dwell(cur, evening+travelSec(p.work, p.home, p.speed), dayStart+hourToSec(23.2))
		}
		return
	}

	// Weekend / non-worker day: late start, one or two outings.
	t := dayStart + hourToSec(9.5+rng.Float64()*2)
	s.dwell(cur, dayStart+hourToSec(8), t)
	outings := 1 + rng.Intn(2)
	for i := 0; i < outings && len(p.leisure) > 0; i++ {
		venue := mathx.Choice(rng, p.leisure)
		s.travel(cur, venue, t, p.speed)
		t += travelSec(cur, venue, p.speed)
		cur = venue
		dur := int64(3600 + rng.Intn(10800))
		s.dwell(cur, t, t+dur)
		t += dur
	}
	s.travel(cur, p.home, t, p.speed)
	t += travelSec(cur, p.home, p.speed)
	s.dwell(p.home, t, dayStart+hourToSec(23.5))
}

func hourToSec(h float64) int64 { return int64(h * 3600) }

func travelSec(from, to geo.Point, speed float64) int64 {
	if speed <= 0 {
		speed = 1
	}
	return int64(geo.FastDistance(from, to)/speed) + 1
}

// sampler turns dwell/travel segments into GPS records with noise.
type sampler struct {
	records     []trace.Record
	dwellPeriod int64
	movePeriod  int64
	noise       float64
	rng         *mathx.Rand
	lastTS      int64
}

// reset readies s for a new user drawing from rng, keeping the record
// buffer's storage.
func (s *sampler) reset(cfg Config, rng *mathx.Rand) {
	dp := int64(cfg.DwellSample / time.Second)
	if dp <= 0 {
		dp = 600
	}
	mp := int64(cfg.MoveSample / time.Second)
	if mp <= 0 {
		mp = 120
	}
	*s = sampler{records: s.records[:0], dwellPeriod: dp, movePeriod: mp, noise: cfg.GPSNoise, rng: rng}
}

func (s *sampler) emit(p geo.Point, ts int64) {
	if ts <= s.lastTS {
		ts = s.lastTS + 1
	}
	s.lastTS = ts
	if s.noise > 0 {
		p = geo.Offset(p, s.rng.NormFloat64()*s.noise, s.rng.NormFloat64()*s.noise)
	}
	s.records = append(s.records, trace.At(p, ts))
}

// dwell samples a stay at p during [from, to].
func (s *sampler) dwell(p geo.Point, from, to int64) {
	if to <= from {
		return
	}
	for ts := from; ts <= to; ts += s.dwellPeriod {
		s.emit(p, ts)
	}
}

// travel samples a straight-line movement from a to b starting at t0.
func (s *sampler) travel(a, b geo.Point, t0 int64, speed float64) {
	d := geo.FastDistance(a, b)
	if d < 1 {
		return
	}
	dur := travelSec(a, b, speed)
	for ts := int64(0); ts <= dur; ts += s.movePeriod {
		f := float64(ts) / float64(dur)
		s.emit(geo.Interpolate(a, b, f), t0+ts)
	}
}
