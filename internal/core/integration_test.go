package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"credist/internal/graph"
	"credist/internal/seedsel"
)

// TestCELFEqualsGreedyOnEngine: the lazy-forward optimization must select
// exactly the seeds plain greedy selects when driven by the CD engine
// (CELF's correctness rests on sigma_cd's submodularity, Theorem 2).
// Floating-point ties could in principle reorder equal-gain candidates;
// we therefore compare gains, spreads and sets rather than raw order, and
// use integer-friendly instances.
func TestCELFEqualsGreedyOnEngine(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 23))
	for trial := 0; trial < 8; trial++ {
		g, log := randomInstance(rng, 20+rng.IntN(10), 8+rng.IntN(6))
		k := 2 + rng.IntN(4)

		celf := seedsel.CELF(NewProbe(NewEngine(g, log, Options{})).Estimator(nil), k)
		greedy := seedsel.Greedy(NewProbe(NewEngine(g, log, Options{})).Estimator(nil), k)

		if len(celf.Seeds) != len(greedy.Seeds) {
			t.Fatalf("trial %d: seed counts differ: %d vs %d", trial, len(celf.Seeds), len(greedy.Seeds))
		}
		for i := range celf.Gains {
			if math.Abs(celf.Gains[i]-greedy.Gains[i]) > 1e-9 {
				t.Fatalf("trial %d: gain %d differs: %g vs %g",
					trial, i, celf.Gains[i], greedy.Gains[i])
			}
		}
		if math.Abs(celf.Spread()-greedy.Spread()) > 1e-9 {
			t.Fatalf("trial %d: spreads differ: %g vs %g", trial, celf.Spread(), greedy.Spread())
		}
		if celf.Lookups > greedy.Lookups {
			t.Fatalf("trial %d: CELF did more lookups (%d) than greedy (%d)",
				trial, celf.Lookups, greedy.Lookups)
		}
	}
}

// TestGreedyApproximationOnSmallInstances: brute-force the optimal seed
// set on tiny instances and confirm greedy achieves at least (1 - 1/e) of
// it — the Nemhauser bound the paper's Algorithm 1 inherits.
func TestGreedyApproximationOnSmallInstances(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 29))
	bound := 1 - 1/math.E
	for trial := 0; trial < 12; trial++ {
		g, log := randomInstance(rng, 8+rng.IntN(4), 4+rng.IntN(4))
		n := g.NumNodes()
		k := 2
		ev := NewEvaluator(g, log, nil)

		// Brute force the optimum over all k-subsets.
		best := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				sp := ev.Spread([]graph.NodeID{graph.NodeID(i), graph.NodeID(j)}, nil)
				if sp > best {
					best = sp
				}
			}
		}
		res := seedsel.CELF(NewProbe(NewEngine(g, log, Options{})).Estimator(nil), k)
		got := ev.Spread(res.Seeds, nil)
		if best > 0 && got < bound*best-1e-9 {
			t.Fatalf("trial %d: greedy %g below (1-1/e)*opt = %g", trial, got, bound*best)
		}
	}
}
