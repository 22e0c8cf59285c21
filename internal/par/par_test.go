package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestWorkers pins the one worker-count rule: <= 0 means GOMAXPROCS, and
// the count is clamped to [1, n].
func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ n, workers, want int }{
		{10, 3, 3},
		{10, 0, min(procs, 10)},
		{10, -2, min(procs, 10)},
		{2, 8, 2},
		{0, 4, 1},
		{0, 0, 1},
	} {
		if got := Workers(c.n, c.workers); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

// TestForVisitsEveryIndexOnce checks every index runs exactly once, the
// worker index stays in range, and one worker never leaves the calling
// goroutine's order.
func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 0} {
		const n = 1000
		var hits [n]atomic.Int32
		bound := Workers(n, workers)
		var badW atomic.Int32
		For(n, workers, func(w, i int) {
			if w < 0 || w >= bound {
				badW.Add(1)
			}
			hits[i].Add(1)
		})
		if badW.Load() != 0 {
			t.Fatalf("workers=%d: worker index outside [0,%d)", workers, bound)
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	var order []int
	For(5, 1, func(_, i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("one worker ran out of order: %v", order)
		}
	}
	For(0, 4, func(_, _ int) { t.Fatal("fn called for n = 0") })
}
