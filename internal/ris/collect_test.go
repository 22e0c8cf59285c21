package ris

import (
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"credist/internal/cascade"
	"credist/internal/graph"
)

// randomSource builds a moderately dense random cascade source for the
// collection tests.
func randomSource(t testing.TB, n, edges int, seed uint64) Source {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed))
	b := graph.NewBuilder(n)
	for e := 0; e < edges; e++ {
		u, v := graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n))
		if u != v {
			_ = b.AddEdge(u, v)
		}
	}
	g := b.Build()
	w := cascade.NewWeights(g)
	for u := int32(0); u < int32(n); u++ {
		for _, v := range g.Out(u) {
			_ = w.Set(u, v, 0.05+0.2*rng.Float64())
		}
	}
	return CascadeSource(w, cascade.IC)
}

// TestParallelCollectDeterministic is the determinism wall for striped
// collection: sets, selected seeds, spreads, and interval estimates must
// be bit-identical at Workers 1, GOMAXPROCS, and an oversubscribed count.
func TestParallelCollectDeterministic(t *testing.T) {
	src := randomSource(t, 80, 400, 21)
	const count, seed = 2000, 42
	ref := CollectParallel(src, count, seed, CollectOptions{Workers: 1})
	refSeeds, refSpreads := ref.SelectSeeds(8)
	probe := []graph.NodeID{3, 17, 55}
	refEst := ref.Estimate(probe)
	for _, workers := range []int{runtime.GOMAXPROCS(0), 4 * runtime.GOMAXPROCS(0)} {
		c := CollectParallel(src, count, seed, CollectOptions{Workers: workers})
		if !reflect.DeepEqual(setsOf(c), setsOf(ref)) {
			t.Fatalf("workers=%d: sample sets differ from serial collection", workers)
		}
		seeds, spreads := c.SelectSeeds(8)
		if !reflect.DeepEqual(seeds, refSeeds) || !reflect.DeepEqual(spreads, refSpreads) {
			t.Fatalf("workers=%d: selection differs: %v/%v vs %v/%v", workers, seeds, spreads, refSeeds, refSpreads)
		}
		if est := c.Estimate(probe); est != refEst {
			t.Fatalf("workers=%d: estimate %+v differs from %+v", workers, est, refEst)
		}
	}
}

// TestExtendMatchesDirectCollect pins the growth rule: extending a
// collection to a larger count (including from counts that split a
// stripe) reproduces the directly drawn collection bit for bit, and the
// receiver is untouched.
func TestExtendMatchesDirectCollect(t *testing.T) {
	src := randomSource(t, 60, 250, 5)
	const seed = 7
	direct := CollectParallel(src, 1500, seed, CollectOptions{})
	for _, start := range []int{0, 100, DefaultStripe, DefaultStripe + 37, 1499} {
		small := CollectParallel(src, start, seed, CollectOptions{Workers: 2})
		before := small.NumSets()
		grown := small.Extend(src, 1500, CollectOptions{Workers: 3})
		if small.NumSets() != before {
			t.Fatalf("Extend mutated the receiver: %d -> %d sets", before, small.NumSets())
		}
		if !reflect.DeepEqual(setsOf(grown), setsOf(direct)) {
			t.Fatalf("start=%d: grown collection differs from direct collection", start)
		}
		if grown.Seed() != seed || grown.Roots() != direct.Roots() {
			t.Fatalf("start=%d: grown metadata differs", start)
		}
	}
	// Growing to a smaller or equal count is a no-op returning the receiver.
	if got := direct.Extend(src, 10, CollectOptions{}); got != direct {
		t.Fatal("Extend to a smaller count must return the receiver")
	}
}

// TestFromSetsRoundTrip pins the snapshot-restore path: a collection
// rebuilt from Samples() answers every estimate and selection identically.
func TestFromSetsRoundTrip(t *testing.T) {
	src := randomSource(t, 50, 200, 9)
	c := CollectParallel(src, 800, 3, CollectOptions{})
	offs, nodes := c.Samples()
	back, err := FromSets(c.NumNodes(), c.Roots(), c.Seed(), offs, nodes)
	if err != nil {
		t.Fatalf("FromSets: %v", err)
	}
	probe := []graph.NodeID{1, 2, 30}
	if got, want := back.Estimate(probe), c.Estimate(probe); got != want {
		t.Fatalf("restored estimate %+v != %+v", got, want)
	}
	s1, g1 := c.SelectSeeds(5)
	s2, g2 := back.SelectSeeds(5)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(g1, g2) {
		t.Fatalf("restored selection differs: %v/%v vs %v/%v", s2, g2, s1, g1)
	}
	// And growth from the restored collection continues the same streams.
	grown := back.Extend(src, 1200, CollectOptions{})
	direct := CollectParallel(src, 1200, 3, CollectOptions{})
	if !reflect.DeepEqual(setsOf(grown), setsOf(direct)) {
		t.Fatal("growth after restore diverges from a continuous collection")
	}

	// Validation rejects malformed inputs.
	if _, err := FromSets(0, 1, 0, []int32{0}, nil); err == nil {
		t.Fatal("FromSets accepted an empty universe")
	}
	if _, err := FromSets(10, 0, 0, []int32{0}, nil); err == nil {
		t.Fatal("FromSets accepted zero roots")
	}
	if _, err := FromSets(10, 4, 0, []int32{0, 0}, nil); err == nil {
		t.Fatal("FromSets accepted an empty sample")
	}
	if _, err := FromSets(10, 4, 0, []int32{0, 1}, []graph.NodeID{10}); err == nil {
		t.Fatal("FromSets accepted an out-of-range id")
	}
	for _, offs := range [][]int32{nil, {1, 2}, {0, 1}, {0, 2, 1}} {
		if _, err := FromSets(10, 4, 0, offs, []graph.NodeID{1, 2}); err == nil {
			t.Fatalf("FromSets accepted offsets %v over a 2-entry arena", offs)
		}
	}
}

// TestWilsonHoeffdingIntervals sanity-checks the interval math at the
// edges and pins that Wilson is the tighter of the two in the small-p
// regime the serving tier lives in.
func TestWilsonHoeffdingIntervals(t *testing.T) {
	lo, hi := WilsonInterval(0, 0, Z99)
	if lo != 0 || hi != 1 {
		t.Fatalf("empty Wilson interval [%g,%g]", lo, hi)
	}
	lo, hi = WilsonInterval(0, 1000, Z99)
	if lo != 0 || hi <= 0 || hi > 0.05 {
		t.Fatalf("zero-hit Wilson interval [%g,%g]", lo, hi)
	}
	lo, hi = WilsonInterval(1000, 1000, Z99)
	if hi < 0.999 || hi > 1 || lo >= hi || lo < 0.95 {
		t.Fatalf("all-hit Wilson interval [%g,%g]", lo, hi)
	}
	wlo, whi := WilsonInterval(50, 5000, Z99)
	hlo, hhi := HoeffdingInterval(50, 5000, 0.01)
	if wlo >= 0.01 || whi <= 0.01 {
		t.Fatalf("Wilson interval [%g,%g] misses the point estimate", wlo, whi)
	}
	if hlo > wlo+1e-12 || hhi < whi-1e-12 {
		t.Fatalf("Hoeffding [%g,%g] should contain Wilson [%g,%g] at p=0.01", hlo, hhi, wlo, whi)
	}
	if (whi - wlo) >= (hhi - hlo) {
		t.Fatalf("Wilson should be tighter at small p: %g vs %g", whi-wlo, hhi-hlo)
	}

	// Estimate is a pure function: same inputs, same bits, with Eps the
	// relative half-width.
	src := randomSource(t, 40, 160, 13)
	c := CollectParallel(src, 1024, 1, CollectOptions{})
	est := c.Estimate([]graph.NodeID{0, 1, 2, 3, 4})
	if est != c.Estimate([]graph.NodeID{0, 1, 2, 3, 4}) {
		t.Fatal("Estimate is not deterministic")
	}
	if est.Hits > 0 {
		if est.Low > est.Spread || est.Spread > est.High {
			t.Fatalf("point estimate %g outside its interval [%g,%g]", est.Spread, est.Low, est.High)
		}
		want := (est.High - est.Low) / (2 * est.Spread)
		if est.Eps != want {
			t.Fatalf("Eps = %g, want %g", est.Eps, want)
		}
	}
	if zero := c.Estimate(nil); zero.Hits != 0 || !math.IsInf(zero.Eps, 1) || zero.Spread != 0 {
		t.Fatalf("empty-set estimate %+v", zero)
	}
}

// BenchmarkEstimateSpread measures the epoch-marked membership walk
// against the pre-rewrite baseline (per-call map over every sample's
// members); the new path is O(sum of the seeds' cover lists), not
// O(total sample mass), and allocation-free.
func BenchmarkEstimateSpread(b *testing.B) {
	src := randomSource(b, 2000, 12000, 17)
	c := CollectParallel(src, 30000, 11, CollectOptions{})
	seeds, _ := c.SelectSeeds(50)
	b.Run("epoch-marked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = c.EstimateSpread(seeds)
		}
	})
	b.Run("map-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = mapEstimateSpread(c, seeds)
		}
	})
}

// mapEstimateSpread is the pre-rewrite implementation, kept as the
// benchmark baseline: a per-call membership map probed for every member
// of every sample.
func mapEstimateSpread(c *Collection, seeds []graph.NodeID) float64 {
	if c.NumSets() == 0 {
		return 0
	}
	inS := make(map[graph.NodeID]bool, len(seeds))
	for _, s := range seeds {
		inS[s] = true
	}
	hit := 0
	for j := 0; j < c.NumSets(); j++ {
		for _, v := range c.nodes[c.offs[j]:c.offs[j+1]] {
			if inS[v] {
				hit++
				break
			}
		}
	}
	return float64(c.roots) * float64(hit) / float64(c.NumSets())
}
