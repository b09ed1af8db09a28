// Command bench is the repository's performance harness: one program
// that builds the system in-process from its public constructors, drives
// it closed-loop, checks what it answers and prints every metric
// BENCHMARK.json names, by name and unit. bench/run.sh builds and runs
// it from the root of a checkout:
//
//	sh bench/run.sh --workload ingest-echo-cluster --seed 1 --seconds 12 --trace 0
//	sh bench/run.sh --workload ingest-mood-node --trace 1 --trace-out spans.jsonl
//	sh bench/run.sh --out a.jsonl            (all four workloads, one report line each)
//	sh bench/run.sh --compare a.jsonl b.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. A failed correctness
// check makes the run exit non-zero. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"mood/internal/clock"
)

// metric is one value of the contract line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one run as -out records it and -compare reads it.
type report struct {
	Workload    string         `json:"workload"`
	Seed        uint64         `json:"seed"`
	Seconds     float64        `json:"seconds"`
	Traced      bool           `json:"traced"`
	Fingerprint fingerprint    `json:"fingerprint"`
	Result      result         `json:"result"`
	Digest      string         `json:"dataset_digest"`
	Run         *runSummary    `json:"run,omitempty"`
	TracedRun   *tracedSummary `json:"traced_run,omitempty"`
}

func main() {
	c, err := loadContract(contractFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(run(os.Args[1:], fullSizing, c, os.Stdout, os.Stderr))
}

// run is main with its inputs named: sz pins the work of a repetition
// (fullSizing, except in the smoke test), c is BENCHMARK.json.
func run(args []string, sz sizing, c *contract, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all four, in BENCHMARK.json order)")
	seed := fs.Uint64("seed", 1, "input seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 12, "seconds of timed phase to measure (whole repetitions, at least three)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, no wrappers installed; 1: traced run, per-layer metrics")
	out := fs.String("out", "", "append one JSON report line per workload to this file (-compare reads it)")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the recorded spans to this file, one JSON object per line")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two report files")
			return 2
		}
		return compareFiles(c.EndToEnd, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: bad arguments (see -h)")
		return 2
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}

	clk := clock.System()
	scratch, err := scratchRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer removeScratch(scratch)
	fp := takeFingerprint(clk, scratch)
	fmt.Fprintf(stdout, "environment: commit %s, %s, %s, nproc %d, GOMAXPROCS %d, %d closed-loop client(s), WAL files on %s, every sync charged a modelled %d us wait (the disk itself would charge %.0f us), group commit\n",
		fp.Commit, fp.GoVersion, fp.CPUModel, fp.NumCPU, fp.GOMAXPROCS, fp.Clients, fp.WALDirFS, modelledSync.Microseconds(), fp.FsyncUs)

	code := 0
	for _, w := range selected {
		rep := report{Workload: w.name, Seed: *seed, Seconds: *seconds, Traced: *traced == 1, Fingerprint: fp}
		if *traced == 1 {
			runTracedReport(&rep, w, sz, c.PerLayer, clk, scratch, *traceOut, stdout, stderr)
		} else {
			runUntracedReport(&rep, w, sz, c.EndToEnd, clk, scratch, stdout, stderr)
		}
		if !rep.Result.Correct {
			code = 1
		}
		if *out != "" {
			if err := appendReport(*out, &rep); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				code = 1
			}
		}
		line, err := json.Marshal(rep.Result)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

func runUntracedReport(rep *report, w *workload, sz sizing, defs []contractMetric, clk clock.Clock, scratch string, stdout, stderr io.Writer) {
	sum, err := runWorkload(w, rep.Seed, rep.Seconds, sz, clk, scratch)
	rep.Run = &sum
	rep.Digest = sum.Digest
	values := map[string]float64{
		"ops_per_s":       sum.OpsPerS,
		"op_p50_ms":       sum.P50Ms,
		"alloc_kb_per_op": sum.AllocKB,
		"setup_s":         sum.SetupS,
	}
	if err != nil && len(sum.Problems) == 0 {
		sum.Problems = append(sum.Problems, err.Error())
	}
	rep.Result, sum.Problems = contractResult(defs, values, sum.Attempted, sum.Failed, sum.Problems)

	fmt.Fprintf(stdout, "\n%s (seed %d): %d repetitions, %d ops, %d failed, %d latency samples\n",
		w.name, rep.Seed, len(sum.Reps), sum.Attempted, sum.Failed, sum.Samples)
	for i, r := range sum.Reps {
		fmt.Fprintf(stdout, "  rep %d (input set %d): set-up %.3f s, timed %.3f s (%.3f s of it stalled), checks %.3f s, %.1f op/s, p50 %.3f ms, %.1f KiB/op\n",
			i, r.Input, r.SetupS, r.TimedS, r.StallS, r.VerifyS, r.OpsPerS, r.P50Ms, r.AllocKB)
	}
	printMetrics(stdout, defs, values)
	fmt.Fprintf(stdout, "  %-28s %12.6f  (%d of %d ops)\n", "failed_share", failedShare(sum.Failed, sum.Attempted), sum.Failed, sum.Attempted)
	fmt.Fprintf(stdout, "  %-28s %12.4f ms (diagnostic over the pooled samples, not gated; 0: too few samples)\n", "op_p90_ms", sum.P90Ms)
	fmt.Fprintf(stdout, "  %-28s %12.4f ms (likewise)\n", "op_p99_ms", sum.P99Ms)
	fmt.Fprintf(stdout, "  %-28s %s\n", "dataset_digest", sum.Digest)
	reportProblems(stderr, w.name, err, sum.Problems)
}

func runTracedReport(rep *report, w *workload, sz sizing, defs []contractMetric, clk clock.Clock, scratch, traceOut string, stdout, stderr io.Writer) {
	sum, tr, err := runTraced(w, rep.Seed, rep.Seconds, sz, clk, scratch)
	if err == nil {
		if perr := runProbes(sum.Metrics, rep.Seed, sz, clk); perr != nil {
			err = perr
			sum.Problems = append(sum.Problems, perr.Error())
		}
	}
	sum.Metrics["store.fsync_us"] = rep.Fingerprint.FsyncUs
	rep.TracedRun = &sum
	rep.Digest = sum.Digest
	if err != nil && len(sum.Problems) == 0 {
		sum.Problems = append(sum.Problems, err.Error())
	}
	rep.Result, sum.Problems = contractResult(defs, sum.Metrics, sum.Attempted, sum.Failed, sum.Problems)

	fmt.Fprintf(stdout, "\n%s (seed %d), traced: %d untraced + %d traced repetitions, %d traced ops, %d failed\n",
		w.name, rep.Seed, len(sum.Untraced), len(sum.Reps), sum.Attempted, sum.Failed)
	fmt.Fprintf(stdout, "  the store seam is aggregate-only: group commit merges the causes of a sync, so store time is split out of the node handlers' self time in aggregate, not per op\n")
	printMetrics(stdout, defs, sum.Metrics)
	printShares(stdout, sum.Shares)
	fmt.Fprintf(stdout, "  %-28s %s\n", "dataset_digest", sum.Digest)
	if tr != nil && traceOut != "" {
		if werr := writeSpans(traceOut, tr); werr != nil {
			err = werr
			rep.Result.Correct = false
		} else {
			fmt.Fprintf(stdout, "  spans written to %s\n", traceOut)
		}
	}
	reportProblems(stderr, w.name, err, sum.Problems)
}

// contractResult builds the contract line: every metric BENCHMARK.json
// names, from the values measured. A run is correct when no op failed
// and it has no problem to report; a named metric the harness did not
// measure is one.
func contractResult(defs []contractMetric, values map[string]float64, attempted, failed int, problems []string) (result, []string) {
	res := result{Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s names the metric %s, which this run did not measure", contractFile, d.Name))
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if attempted < 1 {
		res.Attempted = 1 // the contract's floor
		problems = append(problems, "no op was attempted")
	}
	res.Correct = failed == 0 && len(problems) == 0
	return res, problems
}

func printMetrics(w io.Writer, defs []contractMetric, values map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %12.4f %s\n", d.Name, values[d.Name], d.Unit)
	}
}

// reportProblems prints what failed, each reason once.
func reportProblems(w io.Writer, name string, err error, problems []string) {
	if err != nil {
		problems = append([]string{err.Error()}, problems...)
	}
	seen := make(map[string]bool)
	for _, p := range problems {
		if !seen[p] {
			seen[p] = true
			fmt.Fprintf(w, "bench: %s: FAILED: %s\n", name, p)
		}
	}
}
