package seedsel

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"credist/internal/graph"
)

// coverEstimator is a deterministic submodular oracle: each node covers a
// fixed set of elements, the spread of S is |union of covered sets|.
// Coverage functions are the canonical monotone submodular family, so
// greedy and CELF must agree exactly on them.
type coverEstimator struct {
	covers  [][]int
	covered map[int]bool
}

func newCoverEstimator(covers [][]int) *coverEstimator {
	return &coverEstimator{covers: covers, covered: map[int]bool{}}
}

func (c *coverEstimator) NumNodes() int { return len(c.covers) }

func (c *coverEstimator) Gain(x graph.NodeID) float64 {
	gain := 0
	for _, e := range c.covers[x] {
		if !c.covered[e] {
			gain++
		}
	}
	return float64(gain)
}

func (c *coverEstimator) Add(x graph.NodeID) {
	for _, e := range c.covers[x] {
		c.covered[e] = true
	}
}

func randomCovers(rng *rand.Rand, n, universe int) [][]int {
	covers := make([][]int, n)
	for i := range covers {
		m := 1 + rng.IntN(universe/2)
		seen := map[int]bool{}
		for len(seen) < m {
			seen[rng.IntN(universe)] = true
		}
		for e := range seen {
			covers[i] = append(covers[i], e)
		}
	}
	return covers
}

func TestGreedySolvesSmallCover(t *testing.T) {
	covers := [][]int{
		{1, 2, 3},
		{3, 4},
		{5},
		{1, 2, 3, 4}, // dominates 0 and 1
	}
	res := Greedy(newCoverEstimator(covers), 2)
	if len(res.Seeds) != 2 || res.Seeds[0] != 3 || res.Seeds[1] != 2 {
		t.Fatalf("Seeds = %v, want [3 2]", res.Seeds)
	}
	if res.Spread() != 5 {
		t.Fatalf("Spread = %g, want 5", res.Spread())
	}
}

func TestCELFEqualsGreedy(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0))
		covers := randomCovers(rng, 10+rng.IntN(20), 30)
		k := 1 + rng.IntN(6)
		g := Greedy(newCoverEstimator(covers), k)
		c := CELF(newCoverEstimator(covers), k)
		if len(g.Seeds) != len(c.Seeds) {
			return false
		}
		for i := range g.Seeds {
			// Identical tie-breaking: both prefer the smaller node id.
			if g.Seeds[i] != c.Seeds[i] || g.Gains[i] != c.Gains[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCELFDoesFewerLookups(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	covers := randomCovers(rng, 200, 100)
	k := 10
	g := Greedy(newCoverEstimator(covers), k)
	c := CELF(newCoverEstimator(covers), k)
	if c.Lookups >= g.Lookups {
		t.Fatalf("CELF lookups %d not below greedy %d", c.Lookups, g.Lookups)
	}
}

func TestGreedyStopsWhenCandidatesExhausted(t *testing.T) {
	covers := [][]int{{1}, {2}}
	res := Greedy(newCoverEstimator(covers), 10)
	if len(res.Seeds) != 2 {
		t.Fatalf("Seeds = %v, want both candidates", res.Seeds)
	}
}

func TestGreedyCandidatesRestricted(t *testing.T) {
	covers := [][]int{{1, 2, 3}, {4}, {5}}
	res := GreedyCandidates(newCoverEstimator(covers), 2, []graph.NodeID{1, 2})
	for _, s := range res.Seeds {
		if s == 0 {
			t.Fatal("selected a node outside the candidate pool")
		}
	}
}

func TestElapsedMonotone(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	covers := randomCovers(rng, 50, 40)
	res := CELF(newCoverEstimator(covers), 5)
	if len(res.Elapsed) != len(res.Seeds) {
		t.Fatalf("Elapsed len %d != Seeds len %d", len(res.Elapsed), len(res.Seeds))
	}
	for i := 1; i < len(res.Elapsed); i++ {
		if res.Elapsed[i] < res.Elapsed[i-1] {
			t.Fatal("Elapsed not monotone")
		}
	}
}

func TestGainsNonIncreasing(t *testing.T) {
	// Submodularity makes greedy marginal gains non-increasing.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		covers := randomCovers(rng, 15, 25)
		res := CELF(newCoverEstimator(covers), 8)
		for i := 1; i < len(res.Gains); i++ {
			if res.Gains[i] > res.Gains[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHighDegree(t *testing.T) {
	b := graph.NewBuilder(5)
	// Node 0 out-degree 3; node 1 out-degree 2.
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(0, 2)
	_ = b.AddEdge(0, 3)
	_ = b.AddEdge(1, 2)
	_ = b.AddEdge(1, 3)
	_ = b.AddEdge(2, 4)
	g := b.Build()
	top := HighDegree(g, 2)
	if top[0] != 0 || top[1] != 1 {
		t.Fatalf("HighDegree = %v, want [0 1]", top)
	}
}

func TestPageRankSeedsPicksInfluencer(t *testing.T) {
	// 0 influences everyone: reversed-graph PageRank should rank 0 first.
	b := graph.NewBuilder(6)
	for i := int32(1); i < 6; i++ {
		_ = b.AddEdge(0, i)
	}
	g := b.Build()
	seeds := PageRankSeeds(g, 1)
	if seeds[0] != 0 {
		t.Fatalf("PageRankSeeds = %v, want node 0 first", seeds)
	}
}
