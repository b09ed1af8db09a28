package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"mood/internal/geo"
	"mood/internal/trace"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	if _, err := percentile(seq(99), 0.90); err == nil {
		t.Error("p90 of 99 samples: want an error, nine samples lie beyond the rank")
	}
	got, err := percentile(seq(100), 0.90)
	if err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples: want an error")
	}
	if got, err := percentile(seq(1000), 0.99); err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	// The median is exempt from the tail rule, but not from emptiness.
	if got, err := percentile(seq(3), 0.50); err != nil || got != 2 {
		t.Errorf("p50 of 1..3 = %v, %v; want 2", got, err)
	}
	if _, err := percentile(nil, 0.50); err == nil {
		t.Error("p50 of an empty sample: want an error")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0}, {[]float64{7}, 7}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuietQuartile(t *testing.T) {
	for _, c := range []struct {
		in           []float64
		lower, upper float64
	}{
		{nil, 0, 0},
		{[]float64{7}, 7, 7},
		{[]float64{4, 1, 3, 2}, 1, 4},             // best of up to four
		{[]float64{5, 4, 1, 3, 2}, 2, 4},          // second best of five to eight
		{[]float64{8, 7, 6, 5, 4, 3, 2, 1}, 2, 7}, //
		{seq(9), 3, 7},                            // third best of nine to twelve
	} {
		if got := quietQuartile(c.in, false); got != c.lower {
			t.Errorf("quietQuartile(%v, lower is better) = %v, want %v", c.in, got, c.lower)
		}
		if got := quietQuartile(c.in, true); got != c.upper {
			t.Errorf("quietQuartile(%v, higher is better) = %v, want %v", c.in, got, c.upper)
		}
	}
}

// The driver computes spreads with Python's statistics.quantiles(n=4);
// the expected figures below were produced by it.
func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{seq(10), (8.25 - 2.75) / 5.5},
		{[]float64{10, 12, 11, 15, 9}, (13.5 - 9.5) / 11},
		{[]float64{5, 5, 5, 5}, 0},
		{[]float64{1}, 0},
	} {
		if got := iqrShare(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("iqrShare(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestFailedShare(t *testing.T) {
	if got := failedShare(2, 10); got != 0.2 {
		t.Errorf("failedShare(2, 10) = %v", got)
	}
	if got := failedShare(0, 0); got != 0 {
		t.Errorf("failedShare(0, 0) = %v", got)
	}
}

func frag(user string, ts int64, lat float64) trace.Trace {
	return trace.Trace{User: user, Records: []trace.Record{
		trace.At(geo.Point{Lat: lat, Lon: 6.1}, ts),
		trace.At(geo.Point{Lat: lat + 0.001, Lon: 6.1}, ts+60),
	}}
}

func TestDatasetDigestIgnoresOrderAndPseudonyms(t *testing.T) {
	a, b, c := frag("p1", 1000, 46.2), frag("p2", 2000, 46.3), frag("p3", 3000, 46.4)
	var d1, d2, d3 datasetDigest
	for _, f := range []trace.Trace{a, b, c} {
		d1.add(f)
	}
	for _, f := range []trace.Trace{c, a.WithUser("other"), b.WithUser("names")} {
		d2.add(f)
	}
	if d1 != d2 {
		t.Errorf("digest depends on order or pseudonyms: %s vs %s", d1, d2)
	}
	// A duplicate, a missing fragment and a moved record all show.
	for _, f := range []trace.Trace{a, b, c, c} {
		d3.add(f)
	}
	if d3 == d1 {
		t.Error("a duplicated fragment did not change the digest")
	}
	var d4 datasetDigest
	d4.add(a)
	d4.add(b)
	if d4 == d1 {
		t.Error("a missing fragment did not change the digest")
	}
	var d5 datasetDigest
	for _, f := range []trace.Trace{a, b, frag("p3", 3000, 46.4000001)} {
		d5.add(f)
	}
	if d5 == d1 {
		t.Error("a moved record did not change the digest")
	}
}

func TestJudge(t *testing.T) {
	bound := 0.10
	lower := contractMetric{Better: "lower", Bound: &bound}
	higher := contractMetric{Better: "higher", Bound: &bound}
	steady := func(x float64) []float64 { return []float64{x * 0.99, x, x, x, x * 1.01} }
	for _, c := range []struct {
		name         string
		g            contractMetric
		base, change []float64
		want         string
	}{
		{"latency up 20%", lower, steady(10), steady(12), verdictWorse},
		{"latency up 5%", lower, steady(10), steady(10.5), verdictWithin},
		{"latency down 20%", lower, steady(10), steady(8), verdictBetter},
		{"throughput down 20%", higher, steady(100), steady(80), verdictWorse},
		{"throughput up 20%", higher, steady(100), steady(120), verdictBetter},
		{"noisy runs", lower, []float64{8, 9, 10, 11, 12}, steady(12), verdictUnresolved},
	} {
		if got, _, _ := judge(c.g, c.base, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// -compare exits non-zero when a workload was measured on one side
// only: a partial run must not read as a passing one.
func TestCompareRefusesAOneSidedWorkload(t *testing.T) {
	bound := 0.10
	gates := []contractMetric{{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: &bound}}
	rep := func(workload string) *report {
		return &report{Workload: workload, Seed: 1, Seconds: 1, Result: result{
			Correct: true, Attempted: 10, Metrics: map[string]metric{"ops_per_s": {Value: 100, Unit: "op/s"}},
		}}
	}
	dir := t.TempDir()
	both, partial := filepath.Join(dir, "both.jsonl"), filepath.Join(dir, "partial.jsonl")
	for _, w := range workloads {
		if err := appendReport(both, rep(w.name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := appendReport(partial, rep(workloads[0].name)); err != nil {
		t.Fatal(err)
	}
	var out, errs bytes.Buffer
	if code := compareFiles(gates, both, both, &out, &errs); code != 0 {
		t.Errorf("the same runs on both sides: exit %d\n%s%s", code, out.String(), errs.String())
	}
	out.Reset()
	if code := compareFiles(gates, both, partial, &out, &errs); code != 1 {
		t.Errorf("a workload missing on one side: exit %d, want 1\n%s%s", code, out.String(), errs.String())
	}
	if !strings.Contains(out.String(), workloads[1].name+": 1 base runs, 0 change runs") {
		t.Errorf("the missing workload is not named:\n%s", out.String())
	}
}
