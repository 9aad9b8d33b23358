// Package par is the repository's one worker pool: the scanner's probe
// phases, the traffic engine's user slots and the world build's
// certificate issuance all fan out through ForEach.
package par

import (
	"sync"
	"sync/atomic"
)

// ForEach runs fn(w, i) for every i in [0, n) on min(workers, n)
// goroutines and returns when all calls have. w is the calling worker's
// slot in [0, min(workers, n)), so callers can index per-worker state
// without locking. Workers claim one index at a time from a shared
// atomic counter: a slow item never holds back work queued behind it,
// and the pool drains evenly whatever the cost spread. Which worker runs
// which item is schedule-dependent; callers write results by i, or into
// additive per-worker tallies, so it never shows. With workers <= 1 the
// loop runs inline, in index order.
func ForEach(workers, n int, fn func(w, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
