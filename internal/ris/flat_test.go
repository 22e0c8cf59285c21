package ris

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	"credist/internal/actionlog"
	"credist/internal/cascade"
	"credist/internal/core"
	"credist/internal/graph"
)

// fuzzSource builds one of the three sample sources from fuzz input: the
// IC and LT live-edge samplers over a random weighted graph, or the CD
// credit-walk source over a random graph and action log.
func fuzzSource(t testing.TB, kind uint8, n int, seed uint64) Source {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for d := rng.IntN(4); d >= 0; d-- {
			if v := graph.NodeID(rng.IntN(n)); v != graph.NodeID(u) {
				_ = b.AddEdge(graph.NodeID(u), v)
			}
		}
	}
	g := b.Build()
	switch kind % 3 {
	case 0, 1:
		model := cascade.IC
		if kind%3 == 1 {
			model = cascade.LT
		}
		w := cascade.NewWeights(g)
		for v := graph.NodeID(0); int(v) < n; v++ {
			in := g.In(v)
			for _, u := range in {
				_ = w.Set(u, v, 0.9*rng.Float64()/float64(len(in)))
			}
		}
		return CascadeSource(w, model)
	default:
		lb := actionlog.NewBuilder(n)
		for a := 0; a < 1+n/3; a++ {
			perm := rng.Perm(n)
			for i := 0; i < 2+rng.IntN(n-1); i++ {
				_ = lb.Add(graph.NodeID(perm[i]), actionlog.ActionID(a), float64(rng.IntN(6)))
			}
		}
		log := lb.Build()
		src, err := core.NewEvaluator(g, log, core.LearnTimeAware(g, log)).CreditWalks()
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
}

// checkMatchesReference asserts that a flat collection and the [][]
// reference agree bit for bit: samples, inverted index, point and
// interval estimates, and greedy selection.
func checkMatchesReference(t *testing.T, name string, c *Collection, ref *refCollection) {
	t.Helper()
	if c.NumSets() != len(ref.sets) || c.Seed() != ref.seed || c.Roots() != ref.roots || c.NumNodes() != ref.n {
		t.Fatalf("%s: shape %d sets seed %d roots %d n %d, reference %d/%d/%d/%d", name,
			c.NumSets(), c.Seed(), c.Roots(), c.NumNodes(), len(ref.sets), ref.seed, ref.roots, ref.n)
	}
	if !reflect.DeepEqual(setsOf(c), ref.sets) {
		t.Fatalf("%s: samples differ from the reference", name)
	}
	if !slices.Equal(c.keys, ref.keys) {
		t.Fatalf("%s: index keys %v, reference %v", name, c.keys, ref.keys)
	}
	for i, cov := range coversOf(c) {
		if !slices.Equal(cov, ref.covers[i]) {
			t.Fatalf("%s: cover of node %d is %v, reference %v", name, c.keys[i], cov, ref.covers[i])
		}
	}
	probes := [][]graph.NodeID{nil, {0}, {graph.NodeID(c.n - 1), graph.NodeID(c.n / 2)}, {-1, graph.NodeID(c.n)}}
	if len(ref.keys) > 0 {
		probes = append(probes, ref.keys[:min(3, len(ref.keys))], ref.keys[len(ref.keys)/2:])
	}
	for _, seeds := range probes {
		if got, want := c.EstimateSpread(seeds), ref.EstimateSpread(seeds); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: EstimateSpread(%v) = %v, reference %v", name, seeds, got, want)
		}
		if got, want := c.Estimate(seeds), ref.Estimate(seeds); got != want {
			t.Fatalf("%s: Estimate(%v) = %+v, reference %+v", name, seeds, got, want)
		}
	}
	seeds, spreads := c.SelectSeeds(4)
	rs, rsp := ref.SelectSeeds(4)
	if !reflect.DeepEqual(seeds, rs) || !reflect.DeepEqual(spreads, rsp) {
		t.Fatalf("%s: SelectSeeds = %v/%v, reference %v/%v", name, seeds, spreads, rs, rsp)
	}
}

// FuzzCollectionMatchesReference drives the flat arena against the [][]
// reference over random sources, seeds, counts and growth paths: a direct
// collect, a chain of Extends through fuzz-chosen sizes, and a flat
// restore of a prefix (FromSets over a copied arena) grown to the count.
// Every path must agree with the reference bit for bit.
func FuzzCollectionMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint64(42), uint8(30), uint16(700), []byte{40, 128, 200}, uint8(2))
	f.Add(uint8(1), uint64(2), uint64(7), uint8(12), uint16(513), []byte{255, 1}, uint8(3))
	f.Add(uint8(2), uint64(3), uint64(9), uint8(20), uint16(1300), []byte{64, 64, 190}, uint8(1))
	f.Add(uint8(2), uint64(4), uint64(0), uint8(0), uint16(0), []byte{}, uint8(4))
	f.Add(uint8(0), uint64(5), uint64(11), uint8(47), uint16(256), []byte{128}, uint8(0))
	f.Fuzz(func(t *testing.T, kind uint8, srcSeed, seed uint64, nRaw uint8, countRaw uint16, cuts []byte, workersRaw uint8) {
		n := 2 + int(nRaw%48)
		count := int(countRaw % 1400)
		opts := CollectOptions{Workers: 1 + int(workersRaw%5)}
		src := fuzzSource(t, kind, n, srcSeed)
		ref := refCollect(src, count, seed)

		checkMatchesReference(t, "direct", CollectParallel(src, count, seed, opts), ref)

		sizes := make([]int, 0, len(cuts)+1)
		for _, b := range cuts[:min(len(cuts), 6)] {
			sizes = append(sizes, int(b)*count/256)
		}
		slices.Sort(sizes)
		c := CollectParallel(src, 0, seed, opts)
		for _, size := range append(sizes, count) {
			c = c.Extend(src, size, opts)
		}
		checkMatchesReference(t, "extend chain", c, ref)

		mid := count / 2
		if len(sizes) > 0 {
			mid = sizes[0]
		}
		offs, nodes := CollectParallel(src, mid, seed, opts).Samples()
		back, err := FromSets(src.NumNodes(), src.Roots(), seed, slices.Clone(offs), slices.Clone(nodes))
		if err != nil {
			t.Fatalf("FromSets of a drawn prefix: %v", err)
		}
		checkMatchesReference(t, "restored prefix", back, refCollect(src, mid, seed))
		checkMatchesReference(t, "restore + extend", back.Extend(src, count, opts), ref)
	})
}

// arenaCopy deep-copies a collection's arena and index for later
// comparison.
func arenaCopy(c *Collection) [5][]int32 {
	nodes := make([]int32, len(c.nodes))
	keys := make([]int32, len(c.keys))
	for i, v := range c.nodes {
		nodes[i] = int32(v)
	}
	for i, v := range c.keys {
		keys[i] = int32(v)
	}
	return [5][]int32{slices.Clone(c.offs), nodes, keys, slices.Clone(c.koff), slices.Clone(c.cov)}
}

// TestExtendSameReceiverTwice grows one receiver to two different counts
// at once: each result must equal a direct collect, and the receiver's
// arena and index must be exactly as they were (neither Extend may write
// into storage the receiver or the other result owns).
func TestExtendSameReceiverTwice(t *testing.T) {
	src := randomSource(t, 60, 250, 5)
	const seed = 3
	small := CollectParallel(src, DefaultStripe+40, seed, CollectOptions{Workers: 2})
	before := arenaCopy(small)
	counts := []int{900, 5 * DefaultStripe}
	grown := make([]*Collection, len(counts))
	var wg sync.WaitGroup
	for i, count := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			grown[i] = small.Extend(src, count, CollectOptions{Workers: 2})
		}()
	}
	wg.Wait()
	for i, count := range counts {
		if !reflect.DeepEqual(setsOf(grown[i]), setsOf(CollectParallel(src, count, seed, CollectOptions{}))) {
			t.Fatalf("Extend to %d differs from a direct collect", count)
		}
	}
	if !reflect.DeepEqual(arenaCopy(small), before) {
		t.Fatal("Extend modified its receiver")
	}
}

// TestEstimateDuringExtend queries a collection from several goroutines
// while another extends it (run under -race): the published collection is
// immutable, so every answer matches the pre-growth one.
func TestEstimateDuringExtend(t *testing.T) {
	src := randomSource(t, 80, 400, 8)
	c := CollectParallel(src, 1000, 5, CollectOptions{})
	probe := []graph.NodeID{1, 9, 33}
	want := c.Estimate(probe)
	wantSeeds, _ := c.SelectSeeds(3)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := c.Estimate(probe); got != want {
					t.Errorf("estimate during Extend %+v, want %+v", got, want)
					return
				}
				if s, _ := c.SelectSeeds(3); !slices.Equal(s, wantSeeds) {
					t.Errorf("selection during Extend %v, want %v", s, wantSeeds)
					return
				}
			}
		}()
	}
	for _, count := range []int{1500, 3000, 6000} {
		c.Extend(src, count, CollectOptions{Workers: 2})
	}
	close(stop)
	wg.Wait()
}

// TestWalkersAppendOnly pins the walker contract for every source: a call
// appends one non-empty sample — the same one a walker on the same stream
// draws into an empty slice — and never writes dst[:len(dst)].
func TestWalkersAppendOnly(t *testing.T) {
	for kind := uint8(0); kind < 3; kind++ {
		src := fuzzSource(t, kind, 30, 17)
		fresh, reuse := src.NewWalker(), src.NewWalker()
		r1, r2 := rand.New(rand.NewPCG(1, 2)), rand.New(rand.NewPCG(1, 2))
		dst := make([]graph.NodeID, 5, 8)
		for i := 0; i < 200; i++ {
			for j := range dst {
				dst[j] = -7
			}
			want := fresh(r1, nil)
			got := reuse(r2, dst)
			if len(want) == 0 || !slices.Equal(got[len(dst):], want) {
				t.Fatalf("kind %d: appended %v, want %v", kind, got[len(dst):], want)
			}
			for j, v := range dst {
				if v != -7 || got[j] != -7 {
					t.Fatalf("kind %d: walker wrote dst[%d]", kind, j)
				}
			}
		}
	}
}

// TestCollectAllocsPerStripe pins the arena's allocation profile: drawing
// 100k samples allocates per stripe (stream, walker, buffer growth), never
// per sample.
func TestCollectAllocsPerStripe(t *testing.T) {
	src := randomSource(t, 200, 600, 4)
	const count = 100_000
	stripes := (count + DefaultStripe - 1) / DefaultStripe
	allocs := testing.AllocsPerRun(1, func() {
		CollectParallel(src, count, 1, CollectOptions{Workers: 2})
	})
	// About 7 per stripe today: the PCG stream, the walker and its
	// scratch, plus amortized buffer growth.
	if limit := float64(12*stripes + 200); allocs > limit {
		t.Fatalf("collecting %d samples in %d stripes made %.0f allocations, want <= %.0f", count, stripes, allocs, limit)
	}
}
