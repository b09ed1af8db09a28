package service

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
)

// allocPerOp is the one way the allocation-budget tests measure: it
// runs the collector, holds it off, and runs rounds rounds of ops
// operations each (what names one): prepare, unmeasured when not nil,
// then round. It returns the fewest bytes a round allocated per op.
// With the collector off no pool is emptied mid-round; the minimum drops
// a round in which a buffer grew a step or the scheduler split a commit
// group, and the logged maximum keeps that spread in sight. Callers pin
// GOMAXPROCS when their work fans out.
func allocPerOp(t *testing.T, what string, rounds, ops int, prepare func(), round func(i int)) float64 {
	t.Helper()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	lo, hi := math.Inf(1), 0.0
	for i := 0; i < rounds; i++ {
		if prepare != nil {
			prepare()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		round(i)
		runtime.ReadMemStats(&after)
		perOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
		lo, hi = min(lo, perOp), max(hi, perOp)
	}
	t.Logf("%.0f bytes allocated per %s (at most %.0f) over %d rounds of %d", lo, what, hi, rounds, ops)
	return lo
}
