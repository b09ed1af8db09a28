package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// smokeSizing is about one percent of fullSizing's work: every workload
// keeps its shape (three nodes, two clients, real engine, reboot from
// the log) on inputs small enough for `go test -race`.
var smokeSizing = sizing{
	echoUsers:       12,
	chunksPerBatch:  4,
	recordsPerChunk: 5,
	echoWarm:        1,
	echoBatches:     100,
	checkpointEvery: 40,
	preloadBatches:  6,
	pageLimit:       4,
	scansPerClient:  9,
	users:           8,
	ingestCities:    2,
	retrainCities:   2,
	ingestWarm:      1,
	ingestRounds:    13,
	historyRounds:   2,
	retrainPasses:   40,
}

func readContract(t *testing.T) *contract {
	t.Helper()
	c, err := loadContract("../" + contractFile)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// BENCHMARK.json and the harness name the same workloads, and only
// end-to-end metrics carry a bound. (That every named metric is
// measured is TestSmoke's to check: the harness takes the names from
// the file.)
func TestContractMatchesHarness(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	for _, m := range c.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
}

var digestLine = regexp.MustCompile(`dataset_digest\s+(\S+)`)

// runSmoke runs one workload at smoke size and returns the contract line
// and the digest it printed.
func runSmoke(t *testing.T, c *contract, name, trace string, extra ...string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := append([]string{"--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", trace}, extra...)
	if code := run(args, smokeSizing, c, &stdout, &stderr); code != 0 {
		t.Fatalf("%s --trace %s: exit %d\n%s%s", name, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the contract object: %v\n%s", name, err, lines[len(lines)-1])
	}
	m := digestLine.FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("%s: no dataset_digest printed", name)
	}
	return res, m[1]
}

func checkResult(t *testing.T, label string, res result, want []contractMetric) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct %v, attempted %d, failed %d", label, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", label, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", label, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: %s in %q, want %q", label, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: %s = %v", label, m.Name, got.Value)
		}
	}
}

// Every workload, untraced and traced, at smoke size: every metric
// BENCHMARK.json names comes out finite, every correctness check
// passes, and one seed publishes one dataset.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	t.Chdir(t.TempDir()) // the harness keeps its WALs under the working directory
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, digest := runSmoke(t, c, w.name, "0")
			checkResult(t, "untraced", res, c.EndToEnd)
			for _, m := range c.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v: an end-to-end metric is never zero", m.Name, res.Metrics[m.Name].Value)
				}
			}
			spans := "spans.jsonl"
			traced, tracedDigest := runSmoke(t, c, w.name, "1", "--trace-out", spans)
			checkResult(t, "traced", traced, c.PerLayer)
			if tracedDigest != digest {
				t.Errorf("dataset_digest %s traced, %s untraced: one seed, two datasets", tracedDigest, digest)
			}
			if v := traced.Metrics["unattributed_share"].Value; v < 0 || v > 1 {
				t.Errorf("unattributed_share = %v", v)
			}
			engine := strings.Contains(w.name, "mood") || strings.Contains(w.name, "retrain")
			if protects := traced.Metrics["core.protects"].Value; !engine && protects != 0 {
				t.Errorf("core.protects = %v on an echo-engine workload", protects)
			}
			if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}
