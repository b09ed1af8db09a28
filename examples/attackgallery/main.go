// Attack gallery: how the three re-identification attacks model
// mobility (the paper's Figure 1) and what each one sees.
//
// The example trains AP- (heatmaps), POI- (points of interest) and
// PIT-attacks (mobility Markov chains) on a synthetic city, dumps one
// victim's profile under each model, and re-identifies the victim's
// fresh trace — raw and under Geo-I noise.
//
// Run with:
//
//	go run ./examples/attackgallery
package main

import (
	"fmt"
	"log"
	"time"

	"mood/internal/attack"
	"mood/internal/heatmap"
	"mood/internal/lppm"
	"mood/internal/mathx"
	"mood/internal/mmc"
	"mood/internal/poi"
	"mood/internal/synth"
)

func main() {
	cfg := synth.PrivamovLike(synth.ScaleTiny, 3)
	cfg.NumUsers = 8
	dataset := synth.MustGenerate(cfg)
	background, fresh := dataset.SplitTrainTest(0.5, 20)
	victim := fresh.Traces[len(fresh.Traces)-1]
	history, _ := background.Trace(victim.User)

	fmt.Printf("victim: %s (%d background records, %d fresh records)\n\n",
		victim.User, history.Len(), victim.Len())

	// Model 1: Points of Interest.
	pois := poi.NewExtractor().Extract(history)
	fmt.Printf("POI profile (%d places, 200 m clusters, 1 h dwell):\n", len(pois))
	for i, p := range pois {
		if i == 4 {
			fmt.Printf("  ... and %d more\n", len(pois)-4)
			break
		}
		fmt.Printf("  #%d %v — %d records, %s dwelled\n", i+1, p.Center, p.Records, p.Dwell.Round(time.Minute))
	}

	// Model 2: Mobility Markov Chain.
	chain := mmc.Build(poi.NewExtractor(), history)
	fmt.Printf("\nMMC profile (%d states):\n", chain.NumStates())
	pi := chain.Stationary()
	for i := 0; i < chain.NumStates() && i < 3; i++ {
		fmt.Printf("  state %d: stationary %.2f, transitions %v\n",
			i, pi[i], compact(chain.Trans[i]))
	}

	// Model 3: Heatmap.
	grid := attack.NewAP()
	if err := grid.Train(background.Traces); err != nil {
		log.Fatal(err)
	}
	hm := heatmap.FromTrace(grid.Grid(), history)
	fmt.Printf("\nheatmap profile (800 m cells): %d cells, top cells:\n", hm.Cells())
	for i, cw := range hm.TopCells(3) {
		fmt.Printf("  #%d cell %v — %.0f records (%.0f%%)\n",
			i+1, cw.Cell, cw.Weight, 100*hm.Prob(cw.Cell))
	}

	// Re-identification.
	atks := attack.DefaultSet()
	if err := attack.TrainAll(atks, background.Traces); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nre-identifying the fresh trace:")
	for _, a := range atks {
		v := a.Identify(victim)
		fmt.Printf("  %-4s -> %-14s (score %.3f, correct=%v)\n",
			a.Name(), v.User, v.Score, v.User == victim.User)
	}

	// Under Geo-I medium noise: heatmaps survive, POI clustering breaks.
	noisy, err := lppm.NewGeoI().Obfuscate(mathx.NewRand(1), victim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter Geo-I (eps=%.2g, ~200 m noise):\n", lppm.DefaultEpsilon)
	for _, a := range atks {
		v := a.Identify(noisy)
		if !v.OK {
			fmt.Printf("  %-4s -> no verdict (profile could not be built)\n", a.Name())
			continue
		}
		fmt.Printf("  %-4s -> %-14s (score %.3f, correct=%v)\n",
			a.Name(), v.User, v.Score, v.User == victim.User)
	}
}

func compact(row []float64) []string {
	out := make([]string, len(row))
	for i, p := range row {
		out[i] = fmt.Sprintf("%.2f", p)
	}
	return out
}
