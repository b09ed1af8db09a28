package par

import (
	"runtime"
	"slices"
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

// TestCollectKeepsIndexOrder pins Collect to the sequential loop it
// replaces: kept values in index order, dropped ones gone, whatever the
// worker count.
func TestCollectKeepsIndexOrder(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		for _, n := range []int{0, 1, 5, 97} {
			var want []int
			for i := 0; i < n; i++ {
				if i%3 != 1 {
					want = append(want, i*i)
				}
			}
			got := Collect(n, func(i int) (int, bool) { return i * i, i%3 != 1 })
			if !slices.Equal(got, want) {
				t.Fatalf("procs %d, n %d: Collect = %v, want %v", procs, n, got, want)
			}
		}
	})
}
