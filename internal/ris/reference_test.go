package ris

import (
	"math"
	"math/rand/v2"
	"slices"

	"credist/internal/celf"
	"credist/internal/graph"
)

// refCollection is the pre-arena collection layout, kept as the test
// oracle for the flat one: one heap slice per sample, one cover slice per
// key, a serial stripe-by-stripe draw and a full index rebuild. Every
// query the flat Collection answers must agree with it bit for bit.
type refCollection struct {
	n, roots int
	seed     uint64
	sets     [][]graph.NodeID
	keys     []graph.NodeID
	covers   [][]int32
}

// refCollect draws count samples the way the striped collector always
// has: stripe i from PCG stream pcgStreamBase+i, one fresh walker per
// stripe, each sample in its own slice.
func refCollect(src Source, count int, seed uint64) *refCollection {
	sets := make([][]graph.NodeID, max(count, 0))
	for lo := 0; lo < len(sets); lo += DefaultStripe {
		rng := rand.New(rand.NewPCG(seed, pcgStreamBase+uint64(lo/DefaultStripe)))
		walker := src.NewWalker()
		for j := lo; j < min(lo+DefaultStripe, len(sets)); j++ {
			sets[j] = walker(rng, nil)
		}
	}
	return newRefCollection(src.NumNodes(), src.Roots(), seed, sets)
}

func newRefCollection(n, roots int, seed uint64, sets [][]graph.NodeID) *refCollection {
	r := &refCollection{n: n, roots: roots, seed: seed, sets: sets}
	counts := make([]int32, n)
	entries := 0
	for _, set := range sets {
		for _, v := range set {
			counts[v]++
			entries++
		}
	}
	slot := make([]int32, n) // node -> 1+index into keys; 0 = absent
	backing := make([]int32, entries)
	off := 0
	for v, cnt := range counts {
		if cnt == 0 {
			continue
		}
		r.keys = append(r.keys, graph.NodeID(v))
		r.covers = append(r.covers, backing[off:off:off+int(cnt)])
		off += int(cnt)
		slot[v] = int32(len(r.keys))
	}
	for si, set := range sets {
		for _, v := range set {
			ki := slot[v] - 1
			r.covers[ki] = append(r.covers[ki], int32(si))
		}
	}
	return r
}

func (r *refCollection) coverOf(x graph.NodeID) []int32 {
	i, ok := slices.BinarySearch(r.keys, x)
	if !ok {
		return nil
	}
	return r.covers[i]
}

func (r *refCollection) hitCount(seeds []graph.NodeID) int {
	hit := make(map[int32]bool)
	for _, s := range seeds {
		for _, si := range r.coverOf(s) {
			hit[si] = true
		}
	}
	return len(hit)
}

func (r *refCollection) EstimateSpread(seeds []graph.NodeID) float64 {
	if len(r.sets) == 0 {
		return 0
	}
	return float64(r.roots) * float64(r.hitCount(seeds)) / float64(len(r.sets))
}

func (r *refCollection) Estimate(seeds []graph.NodeID) Estimate {
	est := Estimate{Samples: len(r.sets), Eps: math.Inf(1)}
	if est.Samples == 0 {
		return est
	}
	est.Hits = r.hitCount(seeds)
	scale := float64(r.roots)
	est.Spread = scale * float64(est.Hits) / float64(est.Samples)
	lo, hi := WilsonInterval(est.Hits, est.Samples, Z99)
	est.Low, est.High = scale*lo, scale*hi
	if est.Spread > 0 {
		est.Eps = (est.High - est.Low) / (2 * est.Spread)
	}
	return est
}

// refEstimator is maximum coverage over the reference layout.
type refEstimator struct {
	r       *refCollection
	covered []bool
}

func (e *refEstimator) NumNodes() int { return e.r.n }

func (e *refEstimator) Gain(x graph.NodeID) float64 {
	n := 0
	for _, si := range e.r.coverOf(x) {
		if !e.covered[si] {
			n++
		}
	}
	return float64(n)
}

func (e *refEstimator) Add(x graph.NodeID) {
	for _, si := range e.r.coverOf(x) {
		e.covered[si] = true
	}
}

func (r *refCollection) SelectSeeds(k int) ([]graph.NodeID, []float64) {
	res := celf.Run(&refEstimator{r: r, covered: make([]bool, len(r.sets))}, k, celf.Options{Candidates: r.keys, Workers: 1})
	var seeds []graph.NodeID
	var spreads []float64
	covered := 0.0
	for i, g := range res.Gains {
		if g <= 0 {
			break
		}
		covered += g
		seeds = append(seeds, res.Seeds[i])
		spreads = append(spreads, float64(r.roots)*covered/float64(len(r.sets)))
	}
	return seeds, spreads
}

// setsOf materializes a flat collection's samples as one slice each, the
// layout the reference and the determinism tests compare.
func setsOf(c *Collection) [][]graph.NodeID {
	offs, nodes := c.Samples()
	sets := make([][]graph.NodeID, len(offs)-1)
	for j := range sets {
		sets[j] = nodes[offs[j]:offs[j+1]]
	}
	return sets
}

// coversOf materializes a flat collection's inverted index as one slice
// per key.
func coversOf(c *Collection) [][]int32 {
	covers := make([][]int32, len(c.keys))
	for i, k := range c.keys {
		covers[i] = c.coverOf(k)
	}
	return covers
}
