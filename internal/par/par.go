// Package par is the repository's one fan-out helper. Every entry point
// runs its callbacks on at most GOMAXPROCS workers (never more than
// there are items) and returns once all have finished. Callbacks write
// only the output slots of their own indices, so results are
// position-stable: equal to a sequential loop's, however the work was
// scheduled.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// run calls f(0..w-1), each on its own goroutine unless w is 1, and
// waits for all.
func run(w int, f func(k int)) {
	if w == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := range w {
		go func() {
			defer wg.Done()
			f(k)
		}()
	}
	wg.Wait()
}

func workers(n int) int { return min(runtime.GOMAXPROCS(0), n) }

// Spans splits [0, n) into one contiguous span per worker and calls
// f(lo, hi) for each. Use it when a worker builds state shared across
// its span (the AP batch scan's profile blocks); items of uneven cost
// balance better under Each.
func Spans(n int, f func(lo, hi int)) {
	w := workers(n)
	run(w, func(k int) { f(k*n/w, (k+1)*n/w) })
}

// Each calls f(i) for every i in [0, n). Workers claim indices one at a
// time, so a few costly items do not leave the other workers idle.
func Each(n int, f func(i int)) {
	var next atomic.Int64
	run(workers(n), func(int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			f(i)
		}
	})
}
