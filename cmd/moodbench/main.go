// Command moodbench regenerates every table and figure of the paper's
// evaluation section on the synthetic datasets.
//
// Usage:
//
//	moodbench [-scale bench] [-seed 42] [-figure all] [-dataset name,...] [-search brute]
//
// Figures: table1, fig2, fig3, fig6, fig7, fig8, fig9, fig10, all, and
// dynamic (the §6 extension: static vs retrained verification over
// publication rounds on mdc, a table only, so it refuses -json,
// -dataset and any -search but brute). fig6 uses the single-attack setting (AP only);
// everything else runs the full attack set (AP + POI + PIT). An unknown
// figure is refused before anything is evaluated.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"mood/internal/core"
	"mood/internal/eval"
	"mood/internal/report"
	"mood/internal/synth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "moodbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("moodbench", flag.ContinueOnError)
	scaleFlag := fs.String("scale", "bench", "dataset scale: tiny, bench or paper")
	seed := fs.Uint64("seed", 42, "random seed (datasets, LPPM noise, pseudonyms)")
	figure := fs.String("figure", "all", "which figure to regenerate: table1, fig2, fig3, fig6, fig7, fig8, fig9, fig10, dynamic or all")
	datasets := fs.String("dataset", "", "comma-separated dataset subset (default: all four)")
	search := fs.String("search", "brute", "composition search: brute or greedy")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON summary instead of tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !slices.Contains(figures, *figure) {
		return fmt.Errorf("unknown figure %q (want one of %s)", *figure, strings.Join(figures, ", "))
	}
	if *figure == "dynamic" {
		var refused []string
		if *jsonOut {
			refused = append(refused, "-json")
		}
		if *datasets != "" {
			refused = append(refused, "-dataset")
		}
		if *search != "brute" {
			refused = append(refused, "-search")
		}
		if len(refused) > 0 {
			return fmt.Errorf("-figure dynamic takes no %s", strings.Join(refused, ", "))
		}
	}

	scale, err := synth.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	var names []string
	if *datasets != "" {
		names = strings.Split(*datasets, ",")
	}
	var strategy core.SearchStrategy
	switch *search {
	case "brute":
		strategy = core.BruteForce{}
	case "greedy":
		strategy = core.Greedy{}
	default:
		return fmt.Errorf("unknown search strategy %q", *search)
	}

	if *figure == "dynamic" {
		return runDynamic(out, scale, *seed)
	}

	cfg := eval.Config{Scale: scale, Seed: *seed, Datasets: names, Search: strategy}
	wantSingle := *figure == "all" || *figure == "fig6"
	wantMulti := *figure != "fig6"

	//mood:allow clockdiscipline -- operator-facing elapsed time on a CLI; nothing downstream consumes it
	start := time.Now()
	var multi eval.Run
	if wantMulti {
		multi, err = eval.RunAll(cfg)
		if err != nil {
			return err
		}
	}
	var single *eval.Run
	if wantSingle {
		sCfg := cfg
		sCfg.SingleAttack = true
		sr, err := eval.RunAll(sCfg)
		if err != nil {
			return err
		}
		single = &sr
	}

	if *jsonOut {
		if !wantMulti {
			return report.WriteJSON(out, *single)
		}
		return report.WriteJSON(out, multi)
	}

	switch *figure {
	case "all":
		report.All(out, multi, single)
	case "table1":
		report.Table1(out, multi)
	case "fig2":
		report.Figure2(out, multi)
	case "fig3":
		report.Figure3(out, multi)
	case "fig6":
		report.FigureUsers(out, *single, "Figure 6. Non-protected users, single attack (AP only)")
	case "fig7":
		report.FigureUsers(out, multi, "Figure 7. Non-protected users, multiple attacks (AP+POI+PIT)")
	case "fig8":
		report.Figure8(out, multi)
	case "fig9":
		report.Figure9(out, multi)
	case "fig10":
		report.Figure10(out, multi)
	}
	//mood:allow clockdiscipline -- wall-clock elapsed line for the operator, outside every figure/report body
	elapsed := time.Since(start).Round(time.Millisecond)
	fmt.Fprintf(out, "\n(scale=%s seed=%d search=%s elapsed=%s)\n",
		scale, *seed, *search, elapsed)
	return nil
}

// figures are the values -figure takes.
var figures = []string{"table1", "fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10", "dynamic", "all"}

// runDynamic executes the §6 dynamic-protection extension: static vs
// retrained verification over publication rounds.
func runDynamic(out io.Writer, scale synth.Scale, seed uint64) error {
	static, err := eval.RunDynamic(eval.DynamicConfig{Scale: scale, Seed: seed, Rounds: 3})
	if err != nil {
		return err
	}
	dynamic, err := eval.RunDynamic(eval.DynamicConfig{Scale: scale, Seed: seed, Rounds: 3, Retrain: true})
	if err != nil {
		return err
	}
	report.Dynamic(out, static, dynamic)
	return nil
}
