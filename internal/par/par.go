// Package par is the module's one index-parallel loop. Every fan-out —
// the scan, the evaluator's DAG build, gain batches, CELF passes, RR
// stripe draws, spread batches and partition appends — hands its indexes
// out through For, so there is one worker-count rule and one pool.
// Results are written by index, so nothing built depends on scheduling.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the worker count For uses for n items: workers, or
// GOMAXPROCS when workers <= 0, clamped to [1, n].
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// For calls fn(w, i) for every i in [0, n), handing indexes out one at a
// time to Workers(n, workers) goroutines; w in [0, Workers(n, workers))
// is the calling worker's index, for per-worker scratch. One worker runs
// a plain loop on the calling goroutine.
func For(n, workers int, fn func(w, i int)) {
	workers = Workers(n, workers)
	if workers == 1 {
		for i := range n {
			fn(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(w, int(i))
			}
		}()
	}
	wg.Wait()
}
