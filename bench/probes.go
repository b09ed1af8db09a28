package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	"mood/internal/attack"
	"mood/internal/clock"
	"mood/internal/cluster"
	"mood/internal/geo"
	"mood/internal/heatmap"
	"mood/internal/lppm"
	"mood/internal/mathx"
	"mood/internal/mmc"
	"mood/internal/poi"
	"mood/internal/synth"
	"mood/internal/trace"
)

// Probes: direct calls into pure public functions, on inputs from the
// same seed, for the costs no seam can isolate (a seam times a whole
// Identify; the freeze, the prune and the divergence inside it are only
// reachable by calling them). They run in the traced invocation, never
// beside a timed phase.

// probeSink keeps probe results alive so the compiler cannot drop the
// measured calls.
var probeSink float64

// timeProbe runs f in batches until about 20 ms have been measured and
// returns the median batch's cost per call, in nanoseconds.
func timeProbe(clk clock.Clock, f func()) float64 {
	f() // first call pays lazy set-up
	const batches = 9
	calls := 1
	t0 := clk.Now()
	f()
	if one := clk.Since(t0).Nanoseconds(); one > 0 {
		if calls = int(2_000_000 / one); calls < 1 {
			calls = 1
		}
	} else {
		calls = 1000
	}
	per := make([]float64, batches)
	for b := range per {
		t0 := clk.Now()
		for i := 0; i < calls; i++ {
			f()
		}
		per[b] = float64(clk.Since(t0).Nanoseconds()) / float64(calls)
	}
	return median(per)
}

// runProbes fills in every probe metric.
func runProbes(m map[string]float64, seed uint64, sz sizing, clk clock.Clock) error {
	// Eight days of a city of the seed's own, half background.
	sc := synth.MDCLike(synth.ScalePaper, mathx.DeriveSeed(seed, "bench-probe-city"))
	sc.NumUsers = sz.users
	sc.Days = 8
	full, err := synth.Generate(sc)
	if err != nil {
		return fmt.Errorf("probe population: %w", err)
	}
	bg, test := full.SplitTrainTest(0.5, 20)
	if test.NumUsers() < 2 {
		return fmt.Errorf("probe population has %d test users", test.NumUsers())
	}
	// The probed chunk is one user's first test day: the unit every
	// engine-side workload uploads.
	var days []trace.Trace
	var owners []string
	for _, t := range test.Traces {
		day := t.Window(t.Start(), t.Start()+86400)
		days = append(days, day.WithUser(""))
		owners = append(owners, t.User)
	}
	chunk := test.Traces[0].Window(test.Traces[0].Start(), test.Traces[0].Start()+86400)
	anon := chunk.WithUser("")

	ap, poiAtk, pit := attack.NewAP(), attack.NewPOIAttack(), attack.NewPIT()
	set := attack.Set{ap, poiAtk, pit}
	if err := attack.TrainAll(set, bg.Traces); err != nil {
		return fmt.Errorf("probe attacks: %w", err)
	}
	hmc, err := lppm.NewHMC(0, bg.Traces)
	if err != nil {
		return fmt.Errorf("probe HMC: %w", err)
	}

	us := func(ns float64) float64 { return ns / 1e3 }
	sink := func(t trace.Trace, err error) {
		if err == nil {
			probeSink += float64(t.Len())
		}
	}

	// lppm: one Obfuscate of the day chunk per mechanism.
	rng := mathx.DeriveRand(seed, "bench-probe")
	geoi := lppm.GeoI{Epsilon: lppm.DefaultEpsilon}
	trl := lppm.TRL{Radius: lppm.DefaultTRLRadius, NumAssisted: 3}
	m["lppm.hmc_us"] = us(timeProbe(clk, func() { sink(hmc.Obfuscate(rng, chunk)) }))
	m["lppm.geoi_us"] = us(timeProbe(clk, func() { sink(geoi.Obfuscate(rng, chunk)) }))
	m["lppm.trl_us"] = us(timeProbe(clk, func() { sink(trl.Obfuscate(rng, chunk)) }))

	// attack: scalar identifies, the batch scan and the audit predicate.
	m["attack.ap_identify_us"] = us(timeProbe(clk, func() { probeSink += ap.Identify(anon).Score }))
	m["attack.poi_identify_us"] = us(timeProbe(clk, func() { probeSink += poiAtk.Identify(anon).Score }))
	m["attack.pit_identify_us"] = us(timeProbe(clk, func() { probeSink += pit.Identify(anon).Score }))
	m["attack.ap_batch_us_per_trace"] = us(timeProbe(clk, func() {
		probeSink += float64(len(ap.IdentifyBatch(days)))
	})) / float64(len(days))
	m["attack.reaudit_us_per_pair"] = us(timeProbe(clk, func() {
		probeSink += float64(len(set.ReIdentifiesBatch(days, owners)))
	})) / float64(len(days))

	// heatmap: freeze, quantise, the exact divergence and the f32 prune,
	// on the AP attack's own grid geometry.
	box := geo.EmptyBBox()
	for _, t := range bg.Traces {
		box = box.Extend(t.BBox().Center())
	}
	grid := geo.NewGrid(box.Center(), heatmap.DefaultCellSize)
	frozen := heatmap.FrozenFromTrace(grid, chunk)
	profile := heatmap.FrozenFromTrace(grid, bg.Traces[0])
	other := heatmap.FrozenFromTrace(grid, bg.Traces[1])
	qa, qb := profile.Quantize(), other.Quantize()
	m["heatmap.freeze_us"] = us(timeProbe(clk, func() {
		probeSink += heatmap.FrozenFromTrace(grid, chunk).Total()
	}))
	m["heatmap.quantize_us"] = us(timeProbe(clk, func() { probeSink += float64(profile.Quantize().Cells()) }))
	m["heatmap.topsoe_ns"] = timeProbe(clk, func() { probeSink += frozen.Topsoe(profile) })
	m["heatmap.quant_prune_ns"] = timeProbe(clk, func() {
		probeSink += float64(qa.TopsoeQuantBounded(qb, 1e30))
	})

	// poi, mmc: the extraction and chain build behind POI- and PIT-attack.
	ext := poi.NewExtractor()
	m["poi.extract_us"] = us(timeProbe(clk, func() { probeSink += float64(len(ext.Extract(chunk))) }))
	m["mmc.build_us"] = us(timeProbe(clk, func() { probeSink += float64(mmc.Build(ext, chunk).NumStates()) }))

	// trace: the wire codecs, per 50-record chunk.
	wire := chunk
	if wire.Len() > 50 {
		wire.Records = wire.Records[:50]
	}
	recJSON, err := trace.AppendRecordsJSON(nil, wire.Records)
	if err != nil {
		return fmt.Errorf("probe chunk encoding: %w", err)
	}
	m["trace.bytes_per_chunk"] = float64(len(recJSON))
	m["trace.ndjson_decode_us"] = us(timeProbe(clk, func() {
		recs, _, _ := trace.ScanRecords(recJSON)
		probeSink += float64(len(recs))
	}))
	m["trace.json_encode_us"] = us(timeProbe(clk, func() {
		out, _ := json.Marshal(wire)
		probeSink += float64(len(out))
	}))

	// cluster: one rendezvous-hash owner lookup on the 3-node ring.
	nodes := make([]cluster.Node, clusterSize)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: nodeID(i), URL: "http://127.0.0.1:0"}
	}
	ring, err := cluster.NewRing(nodes)
	if err != nil {
		return fmt.Errorf("probe ring: %w", err)
	}
	u := 0
	m["cluster.ring_owner_ns"] = timeProbe(clk, func() {
		u++
		n, _ := ring.Owner("u" + strconv.Itoa(u%600))
		probeSink += float64(len(n.ID))
	})
	return nil
}
