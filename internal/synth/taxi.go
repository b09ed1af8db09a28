package synth

import (
	"math"

	"mood/internal/geo"
	"mood/internal/mathx"
)

// taxi is the behavioural program of one cab. Unlike phone users, cabs
// have no private anchor places: their traces are sequences of fares.
// What distinguishes one cab from another is only how tightly its fares
// concentrate around a preferred operating zone — a small zoneSigma cab
// is re-identifiable, a city-wide cab is naturally protected. This is
// the Cabspotting property the paper leans on in Figure 6d/7d.
type taxi struct {
	zone      geo.Point // preferred operating zone center
	zoneSigma float64   // fare spread around the zone
	depot     geo.Point // shared parking depot, dwelled pre/post shift
	shiftHour float64   // shift start hour
	shiftLen  float64   // shift length in hours
	speed     float64   // driving speed m/s
}

func newTaxi(cfg Config, c *city, rng *mathx.Rand) taxi {
	smin, smax := cfg.ZoneSigmaMin, cfg.ZoneSigmaMax
	if smin <= 0 {
		smin = 800
	}
	if smax <= smin {
		smax = cfg.Radius
	}
	// Depots are shared infrastructure (the city's venue set): many
	// cabs park at the same lot, so depot POIs alone cannot separate
	// them — only zone tightness can.
	// The square root skews sigmas toward the large end: most cabs roam
	// widely (naturally protected), a minority works a tight
	// neighbourhood (re-identifiable) — the Cabspotting balance of
	// Figure 6d/7d.
	return taxi{
		zone:      randInDisc(rng, cfg.Center, cfg.Radius*0.7),
		zoneSigma: smin + math.Sqrt(rng.Float64())*(smax-smin),
		depot:     mathx.Choice(rng, c.venues),
		shiftHour: 5 + rng.Float64()*12,
		shiftLen:  8 + rng.Float64()*6,
		speed:     7 + rng.Float64()*6,
	}
}

// pickup draws a fare origin: mostly around the cab's preferred zone,
// sometimes anywhere in the city (dispatch calls).
func (tx taxi) pickup(cfg Config, rng *mathx.Rand) geo.Point {
	if rng.Float64() < 0.25 {
		return randInDisc(rng, cfg.Center, cfg.Radius)
	}
	return randNear(rng, tx.zone, tx.zoneSigma)
}

// dropoff draws a fare destination: biased toward downtown, otherwise
// uniform city-wide.
func (tx taxi) dropoff(cfg Config, c *city, rng *mathx.Rand) geo.Point {
	if rng.Float64() < 0.4 {
		return randInDisc(rng, c.downtown, cfg.Radius*0.35)
	}
	return randInDisc(rng, cfg.Center, cfg.Radius)
}

// simulateTaxi runs one cab for the whole period, sampling into s.
func simulateTaxi(cfg Config, c *city, s *sampler, rng *mathx.Rand) {
	tx := newTaxi(cfg, c, rng)
	// Cabs ping more often than phones while driving.
	if s.movePeriod > 90 {
		s.movePeriod = 90
	}

	for day := 0; day < cfg.Days; day++ {
		dayStart := Epoch + int64(day)*86400
		t := dayStart + hourToSec(tx.shiftHour+rng.NormFloat64()*0.5)
		shiftEnd := t + hourToSec(tx.shiftLen)

		// Pre-shift dwell at the depot (cabs are parked and pinging),
		// long enough to register as a POI for profile-based attacks.
		s.dwell(tx.depot, t-hourToSec(1.2), t)
		cur := tx.depot

		for t < shiftEnd {
			// Wait for a fare at the current stand.
			wait := int64(180 + rng.Intn(900))
			s.dwell(cur, t, t+wait)
			t += wait

			pick := tx.pickup(cfg, rng)
			s.travel(cur, pick, t, tx.speed)
			t += travelSec(cur, pick, tx.speed)

			drop := tx.dropoff(cfg, c, rng)
			s.travel(pick, drop, t, tx.speed)
			t += travelSec(pick, drop, tx.speed)
			cur = drop
		}

		// Return to the depot and park.
		s.travel(cur, tx.depot, t, tx.speed)
		t += travelSec(cur, tx.depot, tx.speed)
		s.dwell(tx.depot, t, t+hourToSec(1.2))
	}
}
