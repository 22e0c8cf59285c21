package celf_test

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"credist/internal/celf"
	"credist/internal/core"
	"credist/internal/graph"
)

// coverEstimator is a tiny weighted-coverage estimator — monotone
// submodular with exactly computable optima — for brute-force
// cross-checks of the budgeted selection.
type coverEstimator struct {
	covers  [][]int   // node -> elements it covers
	vals    []float64 // element values
	covered []bool
}

func newCoverEstimator(covers [][]int, vals []float64) *coverEstimator {
	return &coverEstimator{covers: covers, vals: vals, covered: make([]bool, len(vals))}
}

func (c *coverEstimator) NumNodes() int { return len(c.covers) }

func (c *coverEstimator) Gain(x graph.NodeID) float64 {
	g := 0.0
	for _, e := range c.covers[x] {
		if !c.covered[e] {
			g += c.vals[e]
		}
	}
	return g
}

func (c *coverEstimator) Add(x graph.NodeID) {
	for _, e := range c.covers[x] {
		c.covered[e] = true
	}
}

// coverValue computes the exact objective of a node subset.
func coverValue(covers [][]int, vals []float64, set []int) float64 {
	seen := make(map[int]bool)
	total := 0.0
	for _, x := range set {
		for _, e := range covers[x] {
			if !seen[e] {
				seen[e] = true
				total += vals[e]
			}
		}
	}
	return total
}

// bruteBudgetOpt enumerates every subset within budget and returns the
// best achievable objective value.
func bruteBudgetOpt(covers [][]int, vals, costs []float64, budget float64) float64 {
	n := len(covers)
	best := 0.0
	for mask := 1; mask < 1<<n; mask++ {
		cost := 0.0
		var set []int
		for x := 0; x < n; x++ {
			if mask&(1<<x) != 0 {
				cost += costs[x]
				set = append(set, x)
			}
		}
		if cost > budget {
			continue
		}
		if v := coverValue(covers, vals, set); v > best {
			best = v
		}
	}
	return best
}

// TestBudgetedBestOfBeatsRatioTrap pins the best-of rule on the classic
// adversarial instance: a cheap high-ratio node exhausts the budget's
// headroom so the expensive near-optimal node no longer fits. Plain
// cost-benefit greedy returns 2; best-of must return the singleton worth
// 10 — which is also the exhaustive optimum.
func TestBudgetedBestOfBeatsRatioTrap(t *testing.T) {
	covers := [][]int{{0}, {1}}
	vals := []float64{2, 10}
	costs := []float64{1, 10}
	res := celf.Run(newCoverEstimator(covers, vals), 5, celf.Options{Costs: costs, Budget: 10})
	if len(res.Seeds) != 1 || res.Seeds[0] != 1 {
		t.Fatalf("seeds = %v, want the singleton [1]", res.Seeds)
	}
	if res.Spread() != 10 {
		t.Fatalf("spread = %g, want 10", res.Spread())
	}
	if opt := bruteBudgetOpt(covers, vals, costs, 10); res.Spread() != opt {
		t.Fatalf("best-of %g, exhaustive optimum %g", res.Spread(), opt)
	}
}

// TestBudgetedGreedyApproximationOnRandomInstances cross-checks the
// budgeted selection against exhaustive enumeration on random weighted
// coverage instances: the best-of cost-benefit greedy must achieve at
// least (1 - 1/sqrt(e)) of the true optimum (Khuller–Moss–Naor), and
// never exceed it or the budget.
func TestBudgetedGreedyApproximationOnRandomInstances(t *testing.T) {
	const bound = 0.3934 // 1 - 1/sqrt(e), rounded down
	rng := rand.New(rand.NewPCG(23, 42))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.IntN(9)
		elems := 3 + rng.IntN(10)
		covers := make([][]int, n)
		for x := range covers {
			deg := 1 + rng.IntN(3)
			picked := make(map[int]bool)
			for d := 0; d < deg; d++ {
				e := rng.IntN(elems)
				if !picked[e] {
					picked[e] = true
					covers[x] = append(covers[x], e)
				}
			}
		}
		vals := make([]float64, elems)
		for e := range vals {
			vals[e] = 0.5 + rng.Float64()*4
		}
		costs := make([]float64, n)
		total := 0.0
		for x := range costs {
			costs[x] = 0.5 + rng.Float64()*2.5
			total += costs[x]
		}
		budget := 0.5 + rng.Float64()*total

		res := celf.Run(newCoverEstimator(covers, vals), n, celf.Options{Costs: costs, Budget: budget})
		spent := 0.0
		for _, s := range res.Seeds {
			spent += costs[s]
		}
		if spent > budget {
			t.Fatalf("trial %d: selection spends %g over budget %g (seeds %v)", trial, spent, budget, res.Seeds)
		}
		got := coverValue(covers, vals, toInts(res.Seeds))
		if math.Abs(got-res.Spread()) > 1e-9 {
			t.Fatalf("trial %d: recorded spread %g, recomputed %g", trial, res.Spread(), got)
		}
		opt := bruteBudgetOpt(covers, vals, costs, budget)
		if got > opt+1e-9 {
			t.Fatalf("trial %d: greedy %g beats the exhaustive optimum %g", trial, got, opt)
		}
		if got < bound*opt-1e-9 {
			t.Fatalf("trial %d: greedy %g below the (1-1/sqrt(e)) bound of optimum %g", trial, got, opt)
		}
	}
}

func toInts(seeds []graph.NodeID) []int {
	out := make([]int, len(seeds))
	for i, s := range seeds {
		out[i] = int(s)
	}
	return out
}

// TestUnitCostsBitIdenticalToDefault pins the tentpole's determinism
// wall on the celf layer: explicit all-ones costs with no budget order
// the heap by gain/1, which must reproduce the classic selection bit for
// bit — seeds, gains, and prefix spreads — on the real CD engine.
func TestUnitCostsBitIdenticalToDefault(t *testing.T) {
	base := freshEngine(t, true)
	classic := celf.Run(core.NewProbe(base).Estimator(nil), 15, celf.Options{})
	unit := make([]float64, base.NumNodes())
	for i := range unit {
		unit[i] = 1
	}
	costed := celf.Run(core.NewProbe(base).Estimator(nil), 15, celf.Options{Costs: unit})
	requireSameSelection(t, "unit costs", classic, costed)
}

// TestBudgetAsSeedCountCap pins that a budget over unit costs is a seed
// count cap, and that the budgeted prefix is exactly the unbudgeted
// selection's prefix.
func TestBudgetAsSeedCountCap(t *testing.T) {
	base := freshEngine(t, true)
	free := celf.Run(core.NewProbe(base).Estimator(nil), 10, celf.Options{})
	capped := celf.Run(core.NewProbe(base).Estimator(nil), 10, celf.Options{Budget: 3})
	if len(capped.Seeds) != 3 {
		t.Fatalf("budget 3 over unit costs selected %d seeds", len(capped.Seeds))
	}
	for i := range capped.Seeds {
		if capped.Seeds[i] != free.Seeds[i] || capped.Gains[i] != free.Gains[i] {
			t.Fatalf("budgeted prefix diverged at %d: (%d, %b) vs (%d, %b)",
				i, capped.Seeds[i], capped.Gains[i], free.Seeds[i], free.Gains[i])
		}
	}
}

// TestBlockedNodesNeverSelected pins the blocked-set contract on the CD
// engine: the rival's committed seeds are committed to the estimator
// (gains become marginal over the rival set) and never reappear in the
// selection, at any worker count, bit-identically.
func TestBlockedNodesNeverSelected(t *testing.T) {
	base := freshEngine(t, true)
	rival := celf.Run(core.NewProbe(base).Estimator(nil), 3, celf.Options{}).Seeds

	runBlocked := func(workers int) celf.Result {
		eng := core.NewProbe(base).Estimator(nil)
		for _, x := range rival {
			eng.Add(x)
		}
		return celf.Run(eng, 8, celf.Options{Workers: workers, Blocked: rival})
	}
	serial := runBlocked(1)
	if len(serial.Seeds) != 8 {
		t.Fatalf("blocked run selected %d seeds, want 8", len(serial.Seeds))
	}
	blocked := make(map[graph.NodeID]bool, len(rival))
	for _, x := range rival {
		blocked[x] = true
	}
	for _, s := range serial.Seeds {
		if blocked[s] {
			t.Fatalf("blocked node %d was selected", s)
		}
	}
	parallel := runBlocked(runtime.GOMAXPROCS(0))
	requireSameSelection(t, "blocked", serial, parallel)
}

// TestBudgetedSelectionDeterministicAcrossWorkers pins the extended
// determinism wall: a costed, budgeted selection on the CD engine is
// bit-identical at any worker count.
func TestBudgetedSelectionDeterministicAcrossWorkers(t *testing.T) {
	base := freshEngine(t, true)
	costs := make([]float64, base.NumNodes())
	rng := rand.New(rand.NewPCG(9, 77))
	for i := range costs {
		costs[i] = 0.5 + rng.Float64()*3
	}
	opts := func(workers int) celf.Options {
		return celf.Options{Workers: workers, Costs: costs, Budget: 12}
	}
	serial := celf.Run(core.NewProbe(base).Estimator(nil), 30, opts(1))
	if len(serial.Seeds) == 0 {
		t.Fatal("budgeted run selected nothing")
	}
	spent := 0.0
	for _, s := range serial.Seeds {
		spent += costs[s]
	}
	if spent > 12 {
		t.Fatalf("selection spends %g over budget 12", spent)
	}
	for _, workers := range []int{runtime.GOMAXPROCS(0), 4, 13} {
		parallel := celf.Run(core.NewProbe(base).Estimator(nil), 30, opts(workers))
		requireSameSelection(t, "budgeted", serial, parallel)
	}
}
