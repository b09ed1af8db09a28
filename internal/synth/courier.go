package synth

import (
	"mood/internal/geo"
	"mood/internal/mathx"
)

// courier is the behavioural program of a route worker: a fixed,
// personal sequence of stops spanning the city, driven every working
// day, plus a home base. The route corridor dominates the user's
// heatmap, is unique to the user, and is wide enough (city-scale) that
// kilometre-level obfuscation cannot hide it — the archetype of the
// paper's orphan user.
type courier struct {
	home  geo.Point
	stops []geo.Point
	speed float64
}

func newCourier(cfg Config, c *city, rng *mathx.Rand) courier {
	co := courier{
		home:  randNear(rng, mathx.Choice(rng, c.homeClusters), cfg.ClusterRadius),
		speed: 8 + rng.Float64()*5,
	}
	// A distinctive loop of 8-12 stops spread over the whole city.
	n := 8 + rng.Intn(5)
	for i := 0; i < n; i++ {
		co.stops = append(co.stops, randInDisc(rng, cfg.Center, cfg.Radius*0.95))
	}
	return co
}

// simulateCourier runs the courier for the whole period, sampling into s.
func simulateCourier(cfg Config, c *city, s *sampler, rng *mathx.Rand) {
	co := newCourier(cfg, c, rng)
	// Couriers carry a vehicle tracker that pings densely while driving,
	// so the route corridor dominates their heatmap.
	if s.movePeriod > 45 {
		s.movePeriod = 45
	}

	for day := 0; day < cfg.Days; day++ {
		dayStart := Epoch + int64(day)*86400
		weekday := ((day % 7) != 5) && ((day % 7) != 6)

		// Morning at home.
		t := dayStart + hourToSec(6.8+rng.Float64())
		s.dwell(co.home, dayStart+hourToSec(6.2), t)

		if !weekday {
			// Weekends off: stay around home.
			s.dwell(co.home, t, dayStart+hourToSec(22))
			continue
		}

		cur := co.home
		for _, stop := range co.stops {
			s.travel(cur, stop, t, co.speed)
			t += travelSec(cur, stop, co.speed)
			cur = stop
			// Short delivery stop: below the POI dwell threshold but
			// enough records to weigh the corridor's cells.
			stopDur := int64(600 + rng.Intn(1200))
			s.dwell(cur, t, t+stopDur)
			t += stopDur
		}
		s.travel(cur, co.home, t, co.speed)
		t += travelSec(cur, co.home, co.speed)
		s.dwell(co.home, t, dayStart+hourToSec(22.5))
	}
}
