package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// bench -compare a.jsonl b.jsonl: the in-repo, dependency-free
// comparison of two sets of runs (typically the parent commit and a
// change). Each file holds one report line per run, as -out appends
// them. For every workload × end-to-end metric it prints both medians,
// their ratio with its base, the bound BENCHMARK.json fixes and a
// verdict.

// Verdicts of one workload × metric comparison.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of one metric by BENCHMARK.json's rule for
// it. worsening is the change of the median against the base's, signed so
// that positive is worse; spread is the wider of the two sides'
// inter-quartile spreads.
func judge(g contractMetric, base, change []float64) (verdict string, worsening, spread float64) {
	mb, mc := median(base), median(change)
	if mb != 0 {
		worsening = (mc - mb) / mb
		if g.Better == "higher" {
			worsening = -worsening
		}
	}
	spread = iqrShare(base)
	if s := iqrShare(change); s > spread {
		spread = s
	}
	switch {
	case spread > *g.Bound:
		// The runs of one side disagree with each other by more than
		// the bound: no median difference inside it means anything.
		return verdictUnresolved, worsening, spread
	case worsening > *g.Bound:
		return verdictWorse, worsening, spread
	case worsening < -spread:
		return verdictBetter, worsening, spread
	}
	return verdictWithin, worsening, spread
}

// readReports loads the untraced reports of a -out file, by workload.
func readReports(path string) (map[string][]report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]report)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 64<<20)
	for n := 1; sc.Scan(); n++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

func compareFiles(gates []contractMetric, basePath, changePath string, stdout, stderr io.Writer) int {
	base, err := readReports(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	change, err := readReports(changePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		b, c := base[w.name], change[w.name]
		if len(b) == 0 && len(c) == 0 {
			continue
		}
		if len(b) == 0 || len(c) == 0 {
			// A partial run must not read as a passing one.
			fmt.Fprintf(stdout, "%s: %d base runs, %d change runs: nothing to compare it with\n", w.name, len(b), len(c))
			code = 1
			continue
		}
		for _, r := range append(append([]report(nil), b...), c...) {
			if why := b[0].Fingerprint.comparable(r.Fingerprint); why != "" {
				fmt.Fprintf(stderr, "bench: %s: runs were measured in different environments, refusing to compare: %s\n", w.name, why)
				return 2
			}
			if r.Seed != b[0].Seed || r.Seconds != b[0].Seconds {
				fmt.Fprintf(stderr, "bench: %s: runs differ in seed or seconds (%d/%.0f vs %d/%.0f), refusing to compare\n",
					w.name, r.Seed, r.Seconds, b[0].Seed, b[0].Seconds)
				return 2
			}
		}
		fmt.Fprintf(stdout, "%s (seed %d; %d base runs at %s, %d change runs at %s; fsync %.0f vs %.0f us)\n",
			w.name, b[0].Seed, len(b), b[0].Fingerprint.Commit, len(c), c[0].Fingerprint.Commit,
			b[0].Fingerprint.FsyncUs, c[0].Fingerprint.FsyncUs)
		for _, g := range gates {
			verdict, worsening, spread := judge(g, values(b, g.Name), values(c, g.Name))
			mb, mc := median(values(b, g.Name)), median(values(c, g.Name))
			ratio := 0.0
			if mb != 0 {
				ratio = mc / mb
			}
			fmt.Fprintf(stdout, "  %-16s base %12.4f  change %12.4f %-6s  ratio %.4f of base  worse by %+6.2f %%  spread %5.2f %%  bound %4.1f %%  %s\n",
				g.Name, mb, mc, g.Unit, ratio, 100*worsening, 100*spread, 100**g.Bound, verdict)
			if verdict == verdictWorse {
				code = 1
			}
		}
		fb, fc := failures(b), failures(c)
		fmt.Fprintf(stdout, "  %-16s base %12.6f  change %12.6f\n", "failed_share", fb, fc)
		if fc > fb {
			fmt.Fprintf(stdout, "  failed_share rose: worse\n")
			code = 1
		}
		if b[0].Digest != c[0].Digest {
			fmt.Fprintf(stdout, "  dataset_digest differs (%s vs %s): the change publishes different data — state the reason\n", b[0].Digest, c[0].Digest)
		}
	}
	return code
}

// values collects one metric over a set of runs.
func values(rs []report, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.Result.Metrics[name].Value)
	}
	return out
}

// failures is the failed share over a set of runs; an incorrect run
// counts as entirely failed.
func failures(rs []report) float64 {
	failed, attempted := 0, 0
	for _, r := range rs {
		attempted += r.Result.Attempted
		if r.Result.Correct {
			failed += r.Result.Failed
		} else {
			failed += r.Result.Attempted
		}
	}
	return failedShare(failed, attempted)
}
