// Package synth generates synthetic mobility datasets that stand in for
// the four gated/offline datasets of the paper (MDC, Privamov, Geolife,
// Cabspotting — Table 1). See DESIGN.md for why this substitution
// preserves the evaluated behaviour: the experiments compare LPPMs and
// attacks *relative to each other* on datasets whose key property is the
// per-user distinctiveness of mobility.
//
// The generator models a city with residential and work clusters plus
// shared venues, and two kinds of inhabitants:
//
//   - phone users (commuters/students/roamers) with personal POIs, daily
//     schedules, optional mid-period behaviour drift;
//   - taxis (Cabspotting) whose fares concentrate around a per-cab
//     preferred zone of varying tightness, reproducing the "homogeneous
//     fleet, half naturally protected" effect.
//
// Everything is deterministic in Config.Seed, however the work is
// scheduled: Generate simulates the users on every core (internal/par),
// but each user draws only from its own stream, mathx.DeriveRand(seed,
// "synth", name, user), reads only the city (drawn beforehand from a
// stream of its own) and writes only its own index, so the output at any
// GOMAXPROCS is that of a loop over the users.
package synth

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"mood/internal/geo"
	"mood/internal/mathx"
	"mood/internal/par"
	"mood/internal/trace"
)

// Epoch is the synthetic time origin (2019-01-01 00:00:00 UTC, a Tuesday).
const Epoch int64 = 1546300800

// Config fully describes a synthetic dataset.
type Config struct {
	Name     string
	Center   geo.Point
	Radius   float64 // city radius in meters
	NumUsers int
	Days     int
	Seed     uint64

	// TaxiFraction is the share of users simulated as taxis (1 for
	// Cabspotting-like fleets, 0 for phone datasets).
	TaxiFraction float64

	// HomeClusters and WorkClusters control how many residential /
	// employment areas exist; fewer clusters mean more users share the
	// same 800 m heatmap cells and become harder to tell apart.
	HomeClusters int
	WorkClusters int
	// ClusterRadius is the spatial spread of each cluster in meters.
	ClusterRadius float64

	// DriftFraction is the share of users whose habits change at the
	// middle of the period (home/work move), which defeats profiling
	// that was trained on the first half.
	DriftFraction float64

	// CourierFraction is the share of phone users simulated as route
	// workers (couriers, delivery drivers): every day they drive the
	// same distinctive multi-stop route across the city. Their mobility
	// survives noise, dummies and heatmap confusion — these are the
	// orphan users MooD's fine-grained stage exists for.
	CourierFraction float64

	// ZoneSigmaMin/Max bound the per-taxi fare-zone spread. A taxi with
	// a small sigma works a distinctive neighbourhood; a large sigma
	// roams the whole city.
	ZoneSigmaMin, ZoneSigmaMax float64

	// DwellSample and MoveSample are the GPS sampling periods while
	// stationary and while moving.
	DwellSample time.Duration
	MoveSample  time.Duration

	// GPSNoise is the standard deviation of the positioning error in
	// meters.
	GPSNoise float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("synth: empty dataset name")
	case c.NumUsers <= 0:
		return fmt.Errorf("synth: NumUsers = %d", c.NumUsers)
	case c.Days <= 0:
		return fmt.Errorf("synth: Days = %d", c.Days)
	case c.Radius <= 0:
		return fmt.Errorf("synth: Radius = %v", c.Radius)
	case c.TaxiFraction < 0 || c.TaxiFraction > 1:
		return fmt.Errorf("synth: TaxiFraction = %v", c.TaxiFraction)
	}
	return nil
}

// Generate builds the dataset described by cfg.
func Generate(cfg Config) (trace.Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return trace.Dataset{}, err
	}
	city := newCity(cfg)

	numTaxis := int(float64(cfg.NumUsers)*cfg.TaxiFraction + 0.5)
	numCouriers := int(float64(cfg.NumUsers-numTaxis)*cfg.CourierFraction + 0.5)
	traces := make([]trace.Trace, cfg.NumUsers)
	// A sampler's record buffer outlives its user: a worker reuses it
	// for the next one, so each user's records are copied once, by
	// trace.New at their exact count.
	samplers := sync.Pool{New: func() any { return new(sampler) }}
	par.Each(cfg.NumUsers, func(i int) {
		user := userID(cfg.Name, i)
		rng := mathx.DeriveRand(cfg.Seed, "synth", cfg.Name, user)
		s := samplers.Get().(*sampler)
		s.reset(cfg, rng)
		switch {
		case i < numTaxis:
			simulateTaxi(cfg, city, s, rng)
		case i < numTaxis+numCouriers:
			simulateCourier(cfg, city, s, rng)
		default:
			simulatePhoneUser(cfg, city, s, rng)
		}
		traces[i] = trace.New(user, s.records)
		samplers.Put(s)
	})
	d := trace.NewDataset(cfg.Name, traces)
	if err := d.Validate(); err != nil {
		return trace.Dataset{}, fmt.Errorf("synth: generated invalid dataset: %w", err)
	}
	return d, nil
}

// MustGenerate is Generate for callers with static configs (tests,
// examples); it panics on error.
func MustGenerate(cfg Config) trace.Dataset {
	d, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

func userID(dataset string, i int) string {
	return dataset + "-u" + pad3(i)
}

func pad3(i int) string {
	s := strconv.Itoa(i)
	for len(s) < 3 {
		s = "0" + s
	}
	return s
}

// city holds the shared geography drawn once per dataset.
type city struct {
	cfg          Config
	homeClusters []geo.Point
	workClusters []geo.Point
	venues       []geo.Point // shared leisure/shopping places
	downtown     geo.Point
}

func newCity(cfg Config) *city {
	rng := mathx.DeriveRand(cfg.Seed, "synth", cfg.Name, "city")
	c := &city{cfg: cfg, downtown: cfg.Center}
	nh := cfg.HomeClusters
	if nh <= 0 {
		nh = 1
	}
	nw := cfg.WorkClusters
	if nw <= 0 {
		nw = 1
	}
	for i := 0; i < nh; i++ {
		c.homeClusters = append(c.homeClusters, randInDisc(rng, cfg.Center, cfg.Radius))
	}
	for i := 0; i < nw; i++ {
		// Work areas lean toward the center (office districts).
		c.workClusters = append(c.workClusters, randInDisc(rng, cfg.Center, cfg.Radius*0.6))
	}
	nv := 8 + cfg.NumUsers/10
	for i := 0; i < nv; i++ {
		c.venues = append(c.venues, randInDisc(rng, cfg.Center, cfg.Radius*0.8))
	}
	return c
}

// randInDisc draws a point uniformly in the disc of the given radius.
func randInDisc(rng *mathx.Rand, center geo.Point, radius float64) geo.Point {
	r := radius * math.Sqrt(rng.Float64())
	theta := rng.Float64() * 360
	return geo.Destination(center, theta, r)
}

// randNear draws a point from an isotropic Gaussian around center.
func randNear(rng *mathx.Rand, center geo.Point, sigma float64) geo.Point {
	return geo.Offset(center, rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
}
