// Extensions: the paper's §6 future-work directions, implemented.
//
// This example exercises the extension surface of the library:
//
//  1. a larger LPPM portfolio (k-anonymity generalisation via
//     WithKAnonymity, growing the composition space from 15 to 64);
//  2. the greedy heuristic composition search (fewer obfuscated
//     compositions);
//  3. an alternative utility metric (spatial-coverage histogram
//     intersection instead of spatio-temporal distortion);
//  4. protection-kind classification of the outcome (Definitions 4-6).
//
// Run with:
//
//	go run ./examples/extensions
package main

import (
	"fmt"
	"log"

	"mood"
	"mood/internal/metrics"
)

func main() {
	dataset, err := mood.GenerateDataset("mdc", "tiny", 23)
	if err != nil {
		log.Fatal(err)
	}
	background, fresh := mood.SplitTrainTest(dataset, 0.5, 20)

	// Baseline pipeline: the paper's trio, brute-force search, STD.
	baseline, err := mood.NewPipeline(background.Traces, mood.WithSeed(23))
	if err != nil {
		log.Fatal(err)
	}

	// Extended pipeline: + k-anonymity, greedy search, coverage utility.
	extended, err := mood.NewPipeline(background.Traces,
		mood.WithSeed(23),
		mood.WithKAnonymity(4),
		mood.WithGreedySearch(),
		mood.WithUtility(metrics.CoverageUtility{}),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline portfolio: %d mechanisms; extended: %d mechanisms\n\n",
		len(baseline.Mechanisms()), len(extended.Mechanisms()))

	run := func(name string, p *mood.Pipeline) {
		results, err := p.ProtectDataset(fresh)
		if err != nil {
			log.Fatal(err)
		}
		var judged, attackCalls int
		var coverage float64
		var covered int
		for _, r := range results {
			judged += r.Stats.Judged
			attackCalls += r.Stats.AttackCalls
			for _, piece := range r.Pieces {
				coverage += metrics.CoverageUtility{}.Measure(mustTrace(fresh, r.User), piece.Trace) *
					float64(piece.SourceRecords)
				covered += piece.SourceRecords
			}
		}
		c := mood.Classify(results)
		fmt.Printf("%s:\n", name)
		fmt.Printf("  classification: %v\n", c)
		fmt.Printf("  data loss:      %.2f%%\n", 100*p.DataLoss(results))
		fmt.Printf("  judged:         %d candidates\n", judged)
		fmt.Printf("  attack calls:   %d\n", attackCalls)
		if covered > 0 {
			fmt.Printf("  mean coverage:  %.2f\n", coverage/float64(covered))
		}
		fmt.Println()
	}
	run("baseline (HMC+GeoI+TRL, brute, STD)", baseline)
	run("extended (+KAnon, greedy, coverage)", extended)
}

func mustTrace(d mood.Dataset, user string) mood.Trace {
	t, ok := d.Trace(user)
	if !ok {
		log.Fatalf("missing trace for %s", user)
	}
	return t
}
