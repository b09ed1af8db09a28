package synth

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"time"

	"mood/internal/geo"
	"mood/internal/poi"
)

func tinyPhoneConfig() Config {
	cfg := MDCLike(ScaleTiny, 1)
	cfg.NumUsers = 6
	cfg.Days = 6
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(tinyPhoneConfig())
	b := MustGenerate(tinyPhoneConfig())
	if a.NumRecords() != b.NumRecords() || a.NumUsers() != b.NumUsers() {
		t.Fatal("same seed, different dataset size")
	}
	for i := range a.Traces {
		at, bt := a.Traces[i], b.Traces[i]
		if at.User != bt.User || at.Len() != bt.Len() {
			t.Fatalf("trace %d differs structurally", i)
		}
		for j := range at.Records {
			if at.Records[j] != bt.Records[j] {
				t.Fatalf("trace %d record %d differs", i, j)
			}
		}
	}
}

// digest hashes every user ID and every record's bits, in order.
func digest(tb testing.TB, cfg Config) uint64 {
	tb.Helper()
	h := fnv.New64a()
	var buf [24]byte
	for _, tr := range MustGenerate(cfg).Traces {
		h.Write([]byte(tr.User))
		for _, r := range tr.Records {
			binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(r.Lat))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.Lon))
			binary.LittleEndian.PutUint64(buf[16:], uint64(r.TS))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestGenerateAcrossCores: the users are simulated on every core, yet
// the records are the same at any GOMAXPROCS, and the same as the
// one-user-after-another generator's (the pinned digests), for phone
// users with drift and for a taxi/courier/phone mix.
func TestGenerateAcrossCores(t *testing.T) {
	phones := MDCLike(ScaleTiny, 5)
	phones.NumUsers, phones.Days, phones.DriftFraction = 24, 8, 0.5
	fleet := CabspottingLike(ScaleTiny, 6)
	fleet.NumUsers, fleet.Days = 24, 4
	fleet.TaxiFraction, fleet.CourierFraction = 0.5, 0.5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		cfg  Config
		want uint64
	}{{phones, 0x54010fa6a68c3025}, {fleet, 0x9bc4650f59bf0067}} {
		for _, procs := range []int{1, 2, 7} {
			runtime.GOMAXPROCS(procs)
			if got := digest(t, c.cfg); got != c.want {
				t.Errorf("%s at GOMAXPROCS %d: digest %#x, want %#x", c.cfg.Name, procs, got, c.want)
			}
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	cfg1 := tinyPhoneConfig()
	cfg2 := tinyPhoneConfig()
	cfg2.Seed = 999
	a := MustGenerate(cfg1)
	b := MustGenerate(cfg2)
	if a.Traces[0].Records[0] == b.Traces[0].Records[0] {
		t.Fatal("different seeds produced identical first records")
	}
}

func TestGeneratedDatasetIsValid(t *testing.T) {
	d := MustGenerate(tinyPhoneConfig())
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumUsers() != 6 {
		t.Fatalf("users = %d", d.NumUsers())
	}
	for _, tr := range d.Traces {
		if tr.Len() < 100 {
			t.Fatalf("user %s has only %d records", tr.User, tr.Len())
		}
	}
}

func TestPhoneUserStaysInCity(t *testing.T) {
	cfg := tinyPhoneConfig()
	d := MustGenerate(cfg)
	for _, tr := range d.Traces {
		for _, r := range tr.Records {
			if dd := geo.Haversine(cfg.Center, r.Point()); dd > cfg.Radius*1.5 {
				t.Fatalf("user %s strayed %v m from the city center", tr.User, dd)
			}
		}
	}
}

func TestPhoneUserHasHomePOI(t *testing.T) {
	cfg := tinyPhoneConfig()
	d := MustGenerate(cfg)
	e := poi.NewExtractor()
	withPOI := 0
	for _, tr := range d.Traces {
		if len(e.Extract(tr)) > 0 {
			withPOI++
		}
	}
	if withPOI < d.NumUsers() {
		t.Fatalf("only %d/%d users have POIs", withPOI, d.NumUsers())
	}
}

func TestTraceSpansRequestedDays(t *testing.T) {
	cfg := tinyPhoneConfig()
	d := MustGenerate(cfg)
	for _, tr := range d.Traces {
		days := tr.Duration().Hours() / 24
		if days < float64(cfg.Days)-1.5 || days > float64(cfg.Days)+0.5 {
			t.Fatalf("user %s spans %.1f days, want ~%d", tr.User, days, cfg.Days)
		}
	}
}

func TestTaxiGeneration(t *testing.T) {
	cfg := CabspottingLike(ScaleTiny, 3)
	cfg.NumUsers = 5
	cfg.Days = 4
	d := MustGenerate(cfg)
	if d.NumUsers() != 5 {
		t.Fatalf("users = %d", d.NumUsers())
	}
	for _, tr := range d.Traces {
		if tr.Len() < 200 {
			t.Fatalf("taxi %s has only %d records", tr.User, tr.Len())
		}
		// Taxis cover ground: path length far exceeds a commuter's.
		var path float64
		for i := 1; i < tr.Len(); i++ {
			path += geo.FastDistance(tr.Records[i-1].Point(), tr.Records[i].Point())
		}
		if path < 50000 {
			t.Fatalf("taxi %s travelled only %.0f m", tr.User, path)
		}
	}
}

func TestTaxiHasFewDwellPOIs(t *testing.T) {
	// Cabs never dwell an hour in one 200 m spot mid-shift; POI profiles
	// should be thin or empty, unlike commuters.
	cfg := CabspottingLike(ScaleTiny, 3)
	cfg.NumUsers = 4
	cfg.Days = 4
	d := MustGenerate(cfg)
	e := poi.NewExtractor()
	for _, tr := range d.Traces {
		if n := len(e.Extract(tr)); n > 3 {
			t.Fatalf("taxi %s has %d dwell POIs, want <= 3", tr.User, n)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	good := tinyPhoneConfig()
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no name", func(c *Config) { c.Name = "" }},
		{"no users", func(c *Config) { c.NumUsers = 0 }},
		{"no days", func(c *Config) { c.Days = 0 }},
		{"no radius", func(c *Config) { c.Radius = 0 }},
		{"bad taxi fraction", func(c *Config) { c.TaxiFraction = 2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := good
			tt.mutate(&cfg)
			if _, err := Generate(cfg); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestPresets(t *testing.T) {
	ps := Presets(ScaleBench, 1)
	if len(ps) != 4 {
		t.Fatalf("presets = %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		names[p.Name] = true
	}
	for _, want := range []string{"mdc", "privamov", "geolife", "cabspotting"} {
		if !names[want] {
			t.Fatalf("missing preset %q", want)
		}
	}
}

func TestPaperScaleUserCounts(t *testing.T) {
	tests := []struct {
		cfg  Config
		want int
	}{
		{MDCLike(ScalePaper, 1), 141},
		{PrivamovLike(ScalePaper, 1), 41},
		{GeolifeLike(ScalePaper, 1), 41},
		{CabspottingLike(ScalePaper, 1), 531},
	}
	for _, tt := range tests {
		if tt.cfg.NumUsers != tt.want {
			t.Errorf("%s paper users = %d, want %d", tt.cfg.Name, tt.cfg.NumUsers, tt.want)
		}
		if tt.cfg.Days != 30 {
			t.Errorf("%s paper days = %d, want 30", tt.cfg.Name, tt.cfg.Days)
		}
	}
}

func TestPresetByName(t *testing.T) {
	cfg, err := PresetByName("geolife", ScaleTiny, 7)
	if err != nil || cfg.Name != "geolife" {
		t.Fatalf("PresetByName: %v, %v", cfg.Name, err)
	}
	if _, err := PresetByName("nope", ScaleTiny, 7); err == nil {
		t.Fatal("unknown preset must error")
	}
}

func TestParseScale(t *testing.T) {
	for _, s := range []string{"tiny", "bench", "paper"} {
		sc, err := ParseScale(s)
		if err != nil {
			t.Fatal(err)
		}
		if sc.String() != s {
			t.Fatalf("round trip %q -> %q", s, sc.String())
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bad scale must error")
	}
}

func TestSamplerMonotonicTimestamps(t *testing.T) {
	d := MustGenerate(tinyPhoneConfig())
	for _, tr := range d.Traces {
		for i := 1; i < tr.Len(); i++ {
			if tr.Records[i].TS < tr.Records[i-1].TS {
				t.Fatalf("user %s has non-monotonic timestamps", tr.User)
			}
		}
	}
}

func TestDriftChangesSecondHalf(t *testing.T) {
	// With DriftFraction 1, every user's dominant POI should move
	// between the first and second half.
	cfg := tinyPhoneConfig()
	cfg.DriftFraction = 1
	cfg.Name = "drift"
	d := MustGenerate(cfg)
	e := poi.NewExtractor()
	moved := 0
	for _, tr := range d.Traces {
		mid := tr.Start() + (tr.End()-tr.Start())/2
		first, second := tr.SplitAt(mid)
		p1 := e.Extract(first)
		p2 := e.Extract(second)
		if len(p1) == 0 || len(p2) == 0 {
			continue
		}
		if geo.FastDistance(p1[0].Center, p2[0].Center) > 500 {
			moved++
		}
	}
	if moved < d.NumUsers()/2 {
		t.Fatalf("only %d/%d drifting users moved their main POI", moved, d.NumUsers())
	}
}

func TestSampleRatesAffectDensity(t *testing.T) {
	sparse := tinyPhoneConfig()
	dense := tinyPhoneConfig()
	dense.DwellSample = time.Minute
	dense.MoveSample = 30 * time.Second
	ds := MustGenerate(sparse)
	dd := MustGenerate(dense)
	if dd.NumRecords() <= ds.NumRecords() {
		t.Fatalf("denser sampling produced fewer records: %d <= %d",
			dd.NumRecords(), ds.NumRecords())
	}
}
