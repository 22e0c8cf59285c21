package ris

import (
	"math"
	"math/rand/v2"
	"testing"

	"credist/internal/cascade"
	"credist/internal/graph"
)

func chainWeights(t *testing.T, n int, p float64) *cascade.Weights {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	w := cascade.NewWeights(b.Build())
	for i := 0; i < n-1; i++ {
		if err := w.Set(graph.NodeID(i), graph.NodeID(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestSampleFromDeterministicChain(t *testing.T) {
	w := chainWeights(t, 5, 1.0)
	s := NewSampler(w, cascade.IC)
	rng := rand.New(rand.NewPCG(1, 1))
	set := s.SampleFrom(4, rng, nil)
	if len(set) != 5 {
		t.Fatalf("RR set of chain tail = %v, want all 5 nodes", set)
	}
	set = s.SampleFrom(0, rng, nil)
	if len(set) != 1 || set[0] != 0 {
		t.Fatalf("RR set of chain head = %v, want just {0}", set)
	}
}

func TestSampleZeroProbability(t *testing.T) {
	w := chainWeights(t, 4, 0)
	s := NewSampler(w, cascade.IC)
	rng := rand.New(rand.NewPCG(2, 2))
	for i := 0; i < 10; i++ {
		if set := s.Sample(rng, nil); len(set) != 1 {
			t.Fatalf("p=0 RR set = %v", set)
		}
	}
}

func TestSelectSeedsChain(t *testing.T) {
	// Deterministic chain: node 0 reaches everyone, so it covers every RR
	// set and greedy picks it first with full coverage.
	w := chainWeights(t, 6, 1.0)
	s := NewSampler(w, cascade.IC)
	c := Collect(s, 500, 3)
	seeds, spreads := c.SelectSeeds(2)
	if seeds[0] != 0 {
		t.Fatalf("first RIS seed = %d, want 0", seeds[0])
	}
	if math.Abs(spreads[0]-6) > 1e-9 {
		t.Fatalf("spread estimate = %g, want 6", spreads[0])
	}
	if len(seeds) != 1 {
		// Everything is covered by node 0; greedy stops early.
		t.Fatalf("seeds = %v, want just node 0", seeds)
	}
}

func TestEstimateSpreadMatchesMC(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	b := graph.NewBuilder(40)
	for e := 0; e < 150; e++ {
		u, v := graph.NodeID(rng.IntN(40)), graph.NodeID(rng.IntN(40))
		if u != v {
			_ = b.AddEdge(u, v)
		}
	}
	g := b.Build()
	w := cascade.NewWeights(g)
	for u := int32(0); u < 40; u++ {
		for _, v := range g.Out(u) {
			_ = w.Set(u, v, 0.1+0.3*rng.Float64())
		}
	}
	seeds := []graph.NodeID{0, 7}
	mc := cascade.NewMCEstimator(w, cascade.IC, cascade.MCOptions{Trials: 20000, Seed: 6})
	want := mc.Spread(seeds)
	c := Collect(NewSampler(w, cascade.IC), 60000, 7)
	got := c.EstimateSpread(seeds)
	if math.Abs(got-want) > 0.08*want+0.3 {
		t.Fatalf("RIS estimate %g far from MC %g", got, want)
	}
}

func TestLTSamplerAtMostOneParentStep(t *testing.T) {
	// In an LT RR sample each traversal step follows at most one in-edge,
	// so the RR set size is at most the path length + 1 on any graph whose
	// in-degrees are all 1... on a chain, sets are prefixes.
	w := chainWeights(t, 6, 1.0)
	s := NewSampler(w, cascade.LT)
	rng := rand.New(rand.NewPCG(8, 8))
	set := s.SampleFrom(5, rng, nil)
	if len(set) != 6 {
		t.Fatalf("LT chain RR set = %v", set)
	}
}

func TestRISvsGreedyQuality(t *testing.T) {
	// RIS seeds should reach a spread comparable to MC-greedy seeds.
	rng := rand.New(rand.NewPCG(9, 9))
	b := graph.NewBuilder(60)
	for e := 0; e < 240; e++ {
		u, v := graph.NodeID(rng.IntN(60)), graph.NodeID(rng.IntN(60))
		if u != v {
			_ = b.AddEdge(u, v)
		}
	}
	g := b.Build()
	w := cascade.NewWeights(g)
	for u := int32(0); u < 60; u++ {
		for _, v := range g.Out(u) {
			_ = w.Set(u, v, 0.15)
		}
	}
	c := Collect(NewSampler(w, cascade.IC), 20000, 10)
	risSeeds, _ := c.SelectSeeds(5)
	mc := cascade.NewMCEstimator(w, cascade.IC, cascade.MCOptions{Trials: 3000, Seed: 11})
	risSpread := mc.Spread(risSeeds)

	greedy := cascade.NewGreedyEstimator(cascade.NewMCEstimator(w, cascade.IC, cascade.MCOptions{Trials: 300, Seed: 12}))
	for i := 0; i < 5; i++ {
		best, bestGain := graph.NodeID(-1), -1.0
		for u := graph.NodeID(0); u < 60; u++ {
			if gain := greedy.Gain(u); gain > bestGain {
				best, bestGain = u, gain
			}
		}
		greedy.Add(best)
	}
	greedySpread := mc.Spread(greedy.Seeds())
	if risSpread < 0.85*greedySpread {
		t.Fatalf("RIS spread %g well below greedy %g", risSpread, greedySpread)
	}
}

func TestRecommendedSamples(t *testing.T) {
	// want computes the documented formula directly:
	// 8*(k*ceil(log2 n) + ln 2)/eps^2, clamped to [1000, 500000]. The old
	// hand-rolled loop overcounted ceil(log2 n) by one for exact powers of
	// two and dropped the additive log 2 term entirely.
	want := func(n, k int, eps float64) int {
		logN := 0.0
		if n > 1 {
			logN = math.Ceil(math.Log2(float64(n)))
		}
		c := int((float64(k)*logN + math.Ln2) / (eps * eps) * 8)
		return max(1000, min(c, 500000))
	}
	cases := []struct {
		name string
		n, k int
		eps  float64
	}{
		{"single node", 1, 5, 0.1},
		{"two nodes", 2, 5, 0.1},
		{"power of two", 1 << 10, 10, 0.1},
		{"power of two large", 1 << 20, 10, 0.1},
		{"off power", 1000, 10, 0.1},
		{"low clamp", 10, 1, 0.5},
		{"high clamp", 1 << 30, 500, 0.01},
		{"eps default", 100, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eps := tc.eps
			if eps <= 0 {
				eps = 0.2
			}
			if got := RecommendedSamples(tc.n, tc.k, tc.eps); got != want(tc.n, tc.k, eps) {
				t.Fatalf("RecommendedSamples(%d,%d,%g) = %d, want %d", tc.n, tc.k, tc.eps, got, want(tc.n, tc.k, eps))
			}
		})
	}
	// Pin the exact clamp values and the power-of-two fix numerically.
	if got := RecommendedSamples(1, 1, 0.1); got != 1000 {
		t.Fatalf("n=1 should clamp low: %d", got)
	}
	if got := RecommendedSamples(1<<30, 500, 0.01); got != 500000 {
		t.Fatalf("high clamp not applied: %d", got)
	}
	rawF := (10*10.0 + math.Ln2) / (0.1 * 0.1) * 8
	if got, raw := RecommendedSamples(1<<10, 10, 0.1), int(rawF); got != raw {
		t.Fatalf("ceil(log2(1024)) must be 10, not 11: got %d, want %d", got, raw)
	}
}
