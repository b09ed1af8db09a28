package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// atProcs runs f once per GOMAXPROCS setting, restoring the original.
func atProcs(t *testing.T, f func(t *testing.T, procs int)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		f(t, procs)
	}
}

func TestSpansPartition(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		for _, n := range []int{0, 1, 2, 6, 7, 8, 100} {
			hits := make([]int, n)
			var spans atomic.Int64
			Spans(n, func(lo, hi int) {
				spans.Add(1)
				if lo >= hi {
					t.Errorf("procs %d, n %d: empty span [%d, %d)", procs, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("procs %d, n %d: index %d visited %d times", procs, n, i, h)
				}
			}
			if s := int(spans.Load()); s > min(procs, n) {
				t.Fatalf("procs %d, n %d: %d spans", procs, n, s)
			}
		}
	})
}

func TestEachVisitsEveryIndexOnce(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		for _, n := range []int{0, 1, 3, 7, 64, 1000} {
			hits := make([]int, n)
			Each(n, func(i int) { hits[i]++ })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("procs %d, n %d: index %d visited %d times", procs, n, i, h)
				}
			}
		}
	})
}
