package main

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mood/internal/clock"
	"mood/internal/service"
)

// fakeWorkload runs ops that never leave the process: the op loop's own
// bookkeeping is what is under test.
func fakeWorkload(clients, ops int, do func(k, i int) error) *workload {
	return &workload{name: "fake", setup: func(*env, any, sizing) (*instance, error) {
		return &instance{
			clients: clients,
			ops:     ops,
			do:      func(k, i int, _ uint32) error { return do(k, i) },
			verify:  func(bool) (datasetDigest, error) { return datasetDigest{}, nil },
			close:   func() error { return nil },
		}, nil
	}}
}

// A refused op counts as attempted and failed, leaves no latency sample
// behind and does not count towards ops_per_s.
func TestRunRepCountsRefusedOps(t *testing.T) {
	var seen [10]atomic.Int32
	w := fakeWorkload(2, 10, func(k, i int) error {
		seen[i].Add(1)
		if i%5 == 1 {
			return errors.New("chunk 0 refused: overloaded")
		}
		return nil
	})
	res, _, err := runRep(w, runInput{}, sizing{}, clock.System(), t.TempDir(), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 10 || res.Failed != 2 {
		t.Errorf("attempted %d, failed %d; want 10, 2", res.Ops, res.Failed)
	}
	if len(res.latencies) != 8 {
		t.Errorf("%d latency samples, want 8: a failed op has no latency", len(res.latencies))
	}
	if done := res.OpsPerS * res.TimedS; done < 7.99 || done > 8.01 {
		t.Errorf("ops_per_s counts %.2f ops, want the 8 that succeeded", done)
	}
	if got := failedShare(res.Failed, res.Ops); got != 0.2 {
		t.Errorf("failed_share %v, want 0.2", got)
	}
	if len(res.Errors) != 2 {
		t.Errorf("errors %q, want the two refusals", res.Errors)
	}
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Errorf("op %d performed %d times", i, n)
		}
	}
}

func TestDrainStopsAtTheFirstFailure(t *testing.T) {
	for _, clients := range []int{1, 2} {
		done := 0
		err := drain(clients, 1000, func(k, i int) error {
			if clients == 1 {
				done++
			}
			if i == 3 {
				return errors.New("boom")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "op 3: boom") {
			t.Errorf("%d clients: error %v, want op 3's", clients, err)
		}
		if clients == 1 && done != 4 {
			t.Errorf("%d ops performed, want to stop after op 3", done)
		}
	}
}

func TestChunkFailure(t *testing.T) {
	ok := &service.UploadResponse{}
	for _, c := range []struct {
		name    string
		res     service.BatchResult
		fails   bool
		shed    int64
		replays int64
	}{
		{"fresh 200", service.BatchResult{Status: 200, Result: ok}, false, 0, 0},
		{"shed", service.BatchResult{Status: 503, Code: "overloaded"}, true, 1, 0},
		{"rate limited", service.BatchResult{Status: 429, Code: "rate_limited"}, true, 0, 0},
		{"replay", service.BatchResult{Status: 200, Result: ok, Replay: true}, true, 0, 1},
		{"200 without an outcome", service.BatchResult{Status: 200}, true, 0, 0},
	} {
		var oc opCounters
		err := chunkFailure(c.res, &oc)
		if (err != nil) != c.fails {
			t.Errorf("%s: error %v, want failure %v", c.name, err, c.fails)
		}
		if oc.chunks.Load() != 1 || oc.shed.Load() != c.shed || oc.replays.Load() != c.replays {
			t.Errorf("%s: tallied chunks %d shed %d replays %d", c.name, oc.chunks.Load(), oc.shed.Load(), oc.replays.Load())
		}
	}
}

// A timing of an input set is the quiet quartile of its repetitions, the
// run's figure the median over input sets; allocations are medians on
// both steps; the tail is read off the pooled samples, or not at all.
func TestAggregateTakesTheQuietQuartilePerInputSet(t *testing.T) {
	rep := func(input int, rate, p50, setup, alloc float64, n int) repResult {
		return repResult{Input: input, Ops: n, OpsPerS: rate, P50Ms: p50, SetupS: setup, AllocKB: alloc, latencies: seq(n)}
	}
	s := runSummary{GenS: 1, Reps: []repResult{
		// Input set 0, five repetitions, three of them beside a busy neighbour.
		rep(0, 100, 10, 2.0, 50, 40), rep(0, 60, 17, 3.1, 51, 40), rep(0, 98, 11, 2.1, 52, 40),
		rep(0, 55, 19, 3.5, 53, 40), rep(0, 70, 15, 2.9, 54, 40),
		// Input set 1, measured once.
		rep(1, 200, 4, 1.0, 80, 40),
	}}
	s.aggregate()
	if len(s.Problems) != 0 {
		t.Errorf("problems %q", s.Problems)
	}
	// Second best of five on set 0 (98 op/s, 11 ms, 2.1 s), the one figure
	// of set 1, then the median of the two; allocations: median 52, then 66.
	if s.OpsPerS != 149 || s.P50Ms != 7.5 || s.SetupS != 1+1.55 || s.AllocKB != 66 {
		t.Errorf("ops_per_s %v, op_p50_ms %v, setup_s %v, alloc_kb_per_op %v; want 149, 7.5, 2.55, 66",
			s.OpsPerS, s.P50Ms, s.SetupS, s.AllocKB)
	}
	// 240 pooled samples: ten lie beyond the p90, not beyond the p99.
	if s.Samples != 240 || s.P90Ms != 36 || s.P99Ms != 0 || s.Attempted != 240 {
		t.Errorf("p90 %v p99 %v over %d samples, %d attempted", s.P90Ms, s.P99Ms, s.Samples, s.Attempted)
	}
}

func TestAggregateFlagsDigestDrift(t *testing.T) {
	s := runSummary{Reps: []repResult{
		{Ops: 1, Digest: "aa/1/2", latencies: seq(100)},
		{Ops: 1, latencies: seq(100)}, // a repetition without a full check has no digest
		{Ops: 1, Digest: "bb/1/2", latencies: seq(100)},
	}}
	s.aggregate()
	if len(s.Problems) != 1 || !strings.Contains(s.Problems[0], "dataset_digest") {
		t.Errorf("problems %q, want one about dataset_digest", s.Problems)
	}
}

// A stall runs with no op in flight, once per multiple of stallEvery,
// and the ops that waited for it carry the wait in their latency.
func TestStallsRunWithNoOpInFlight(t *testing.T) {
	var inFlight, stalls atomic.Int32
	w := fakeWorkload(2, 100, func(k, i int) error {
		inFlight.Add(1)
		defer inFlight.Add(-1)
		return nil
	})
	setup := w.setup
	w.setup = func(e *env, in any, sz sizing) (*instance, error) {
		inst, err := setup(e, in, sz)
		inst.stallEvery = 40
		inst.stall = func() error {
			if n := inFlight.Load(); n != 0 {
				t.Errorf("stall %d ran beside %d op(s)", stalls.Load(), n)
			}
			stalls.Add(1)
			clock.System().Sleep(20 * time.Millisecond)
			return nil
		}
		return inst, err
	}
	res, _, err := runRep(w, runInput{}, sizing{}, clock.System(), t.TempDir(), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if stalls.Load() != 2 || res.Stalls != 2 {
		t.Errorf("%d stalls ran, %d reported; want 2 (before ops 40 and 80)", stalls.Load(), res.Stalls)
	}
	if res.StallS < 0.040 || res.StallS > res.TimedS {
		t.Errorf("stalls took %.3f s of a %.3f s timed phase, want at least 0.040 s inside it", res.StallS, res.TimedS)
	}
	// Both clients sat through both stalls: four ops of 20 ms among the
	// hundred.
	slow := 0
	for _, ms := range res.latencies {
		if ms >= 20 {
			slow++
		}
	}
	if slow != 4 {
		t.Errorf("%d ops carry a stall in their latency, want 4", slow)
	}
}

// A failing stall fails the ops that waited for it.
func TestAFailingStallFailsItsOps(t *testing.T) {
	w := fakeWorkload(2, 10, func(k, i int) error { return nil })
	setup := w.setup
	w.setup = func(e *env, in any, sz sizing) (*instance, error) {
		inst, err := setup(e, in, sz)
		inst.stallEvery = 5
		inst.stall = func() error { return errors.New("disk full") }
		return inst, err
	}
	res, _, err := runRep(w, runInput{}, sizing{}, clock.System(), t.TempDir(), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 5 {
		t.Errorf("%d ops failed, want the 5 from the failed stall on", res.Failed)
	}
}
