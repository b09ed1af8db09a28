// Command moodctl applies MooD protection to a CSV mobility dataset,
// reports what an attacker could still learn, and talks to a running
// moodserver over the /v2 wire protocol.
//
// Offline subcommands:
//
//	moodctl protect -background bg.csv -in raw.csv -out protected.csv [-seed 42]
//	    Train attacks on the background file, run MooD on the input
//	    dataset and write the protected, pseudonymised dataset.
//
//	moodctl attack -background bg.csv -in some.csv
//	    Train the three attacks on the background file and report how
//	    many traces of the input they re-identify.
//
//	moodctl snapshot <file>
//	    Print a server snapshot — a WAL directory's snapshot-*.json, a
//	    binary file despite its name — as JSON on stdout, for jq and
//	    friends.
//
// Server subcommands (v2 client):
//
//	moodctl upload -server URL -in raw.csv [-token T] [-batch 256] [-key-prefix p]
//	    Stream the CSV's traces to POST /v2/traces as NDJSON batches
//	    (one connection per batch, per-chunk results, optional
//	    per-chunk idempotency keys) and summarise the outcome.
//
//	moodctl dataset -server URL [-token T] [-out file.csv] [-user p] [-from ts] [-to ts] [-limit 500]
//	    Page through GET /v2/dataset with the cursor iterator and
//	    write the published dataset as CSV (stdout by default).
//
// CSV format: header "user,lat,lon,ts" with ts in Unix seconds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mood"
	"mood/internal/attack"
	"mood/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "moodctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: moodctl <protect|attack|snapshot|upload|dataset> [flags]")
	}
	switch args[0] {
	case "protect":
		return protect(args[1:])
	case "attack":
		return attackCmd(args[1:])
	case "snapshot":
		return snapshotCmd(args[1:], os.Stdout)
	case "upload":
		return uploadCmd(args[1:])
	case "dataset":
		return datasetCmd(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want protect, attack, snapshot, upload or dataset)", args[0])
	}
}

func protect(args []string) error {
	fs := flag.NewFlagSet("moodctl protect", flag.ContinueOnError)
	background := fs.String("background", "", "CSV file with the attacker-side background knowledge")
	in := fs.String("in", "", "CSV file with the raw dataset to protect")
	out := fs.String("out", "protected.csv", "output CSV path")
	seed := fs.Uint64("seed", 42, "random seed")
	greedy := fs.Bool("greedy", false, "use the heuristic composition search")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *background == "" || *in == "" {
		return fmt.Errorf("-background and -in are required")
	}

	bg, err := mood.LoadCSVFile(*background, "background")
	if err != nil {
		return err
	}
	raw, err := mood.LoadCSVFile(*in, "raw")
	if err != nil {
		return err
	}

	opts := []mood.Option{mood.WithSeed(*seed)}
	if *greedy {
		opts = append(opts, mood.WithGreedySearch())
	}
	pipeline, err := mood.NewPipeline(bg.Traces, opts...)
	if err != nil {
		return err
	}
	results, err := pipeline.ProtectDataset(raw)
	if err != nil {
		return err
	}
	protected := pipeline.Publish("protected", results)
	if err := mood.SaveCSVFile(*out, protected); err != nil {
		return err
	}

	var orphans int
	for _, r := range results {
		if !r.FullyProtected() {
			orphans++
		}
	}
	fmt.Printf("protected %d users into %d published traces (%d records)\n",
		len(results), protected.NumUsers(), protected.NumRecords())
	fmt.Printf("data loss: %.2f%%, users with residual loss: %d\n",
		pipeline.DataLoss(results)*100, orphans)
	fmt.Printf("output: %s\n", *out)
	return nil
}

func attackCmd(args []string) error {
	fs := flag.NewFlagSet("moodctl attack", flag.ContinueOnError)
	background := fs.String("background", "", "CSV file with the attacker-side background knowledge")
	in := fs.String("in", "", "CSV file with the (protected or raw) dataset to attack")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *background == "" || *in == "" {
		return fmt.Errorf("-background and -in are required")
	}

	bg, err := mood.LoadCSVFile(*background, "background")
	if err != nil {
		return err
	}
	target, err := mood.LoadCSVFile(*in, "target")
	if err != nil {
		return err
	}

	atks := attack.DefaultSet()
	if err := attack.TrainAll(atks, bg.Traces); err != nil {
		return err
	}

	// verdicts[a][i] is attack a's guess for trace i.
	verdicts := attack.BatchIdentify(atks, target.Traces)
	perAttack := make([]int, len(atks))
	reidentified := 0
	for i, tr := range target.Traces {
		hitAny := false
		for a, vs := range verdicts {
			if vs[i].OK && vs[i].User == tr.User {
				perAttack[a]++
				hitAny = true
			}
		}
		if hitAny {
			reidentified++
		}
	}
	fmt.Printf("traces: %d, re-identified by at least one attack: %d (%.1f%%)\n",
		target.NumUsers(), reidentified,
		100*float64(reidentified)/float64(max(1, target.NumUsers())))
	for a, atk := range atks {
		fmt.Printf("  %-4s %d\n", atk.Name(), perAttack[a])
	}
	return nil
}

// snapshotCmd prints a binary snapshot file as JSON.
func snapshotCmd(args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: moodctl snapshot <file>")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	doc, err := service.SnapshotJSON(data)
	if err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	_, err = out.Write(append(doc, '\n'))
	return err
}
