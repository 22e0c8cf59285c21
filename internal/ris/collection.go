package ris

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"credist/internal/celf"
	"credist/internal/graph"
)

// Collection is an immutable batch of RR samples with an inverted index
// from node to the samples it appears in. Both halves are flat CSR arrays
// with no pointers inside, so the garbage collector never scans the pool
// and a sample costs its ids plus one offset, not a slice header and an
// allocation of its own:
//
//   - sample j is nodes[offs[j]:offs[j+1]], in draw order;
//   - keys lists, ascending, every node appearing in >= 1 sample, and the
//     ascending indices of the samples containing keys[i] are
//     cov[koff[i]:koff[i+1]].
//
// The index mirrors the core engine's sorted sparse-row layout instead of
// a map, so lookups are allocation-free binary searches and iteration
// order is deterministic by construction. The key slice doubles as the
// seed-selection candidate pool (anything outside it has zero gain
// forever), handed to the celf engine without a per-call rebuild.
type Collection struct {
	n     int // node universe
	roots int // scale numerator (Source.Roots at collection time)
	seed  uint64
	offs  []int32 // len NumSets()+1, offs[0] == 0
	nodes []graph.NodeID
	keys  []graph.NodeID
	koff  []int32   // len(keys)+1
	cov   []int32   // len(nodes): every sample index once per member
	marks sync.Pool // *marker scratch for EstimateSpread
}

// marker is the epoch-marked membership scratch EstimateSpread borrows
// from the pool: mark[si] == epoch means sample si is already counted in
// the current union. Bumping the epoch resets every slot in O(1).
type marker struct {
	mark  []uint32
	epoch uint32
}

// newCollection adopts a sample arena and builds the inverted index.
func newCollection(n, roots int, seed uint64, offs []int32, nodes []graph.NodeID) *Collection {
	c := &Collection{n: n, roots: roots, seed: seed, offs: offs, nodes: nodes}
	c.buildIndex()
	c.marks.New = func() any { return &marker{mark: make([]uint32, c.NumSets())} }
	return c
}

// FromSets reconstructs a collection from a previously drawn sample arena
// (the snapshot-restore path): sample j is nodes[offs[j]:offs[j+1]]. The
// arena is adopted verbatim — the caller must not modify it afterwards —
// and the index is rebuilt, so estimates and selections are bit-identical
// to the collection the samples were drawn from. offs must start at 0,
// end at len(nodes) and strictly increase (every sample non-empty), every
// id must lie in [0, n), and roots must lie in [1, n].
func FromSets(n, roots int, seed uint64, offs []int32, nodes []graph.NodeID) (*Collection, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ris: universe size %d", n)
	}
	if roots < 1 || roots > n {
		return nil, fmt.Errorf("ris: root count %d outside [1,%d]", roots, n)
	}
	if len(offs) == 0 || offs[0] != 0 || int(offs[len(offs)-1]) != len(nodes) {
		return nil, fmt.Errorf("ris: sample offsets do not span the %d-entry arena", len(nodes))
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] <= offs[i-1] {
			return nil, fmt.Errorf("ris: sample %d is empty", i-1)
		}
	}
	for i, v := range nodes {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("ris: sample entry %d node %d outside [0,%d)", i, v, n)
		}
	}
	return newCollection(n, roots, seed, offs, nodes), nil
}

// buildIndex builds the sorted inverted index in two counting passes
// (CSR-style, no maps): ascending node ids, ascending sample indices.
// Every array is allocated once at its exact size.
func (c *Collection) buildIndex() {
	pos := make([]int32, c.n) // per node: its count, then its next cov slot
	for _, v := range c.nodes {
		pos[v]++
	}
	distinct := 0
	for _, cnt := range pos {
		if cnt > 0 {
			distinct++
		}
	}
	c.keys = make([]graph.NodeID, 0, distinct)
	c.koff = make([]int32, 1, distinct+1)
	at := int32(0)
	for v, cnt := range pos {
		if cnt == 0 {
			continue
		}
		c.keys = append(c.keys, graph.NodeID(v))
		pos[v] = at
		at += cnt
		c.koff = append(c.koff, at)
	}
	c.cov = make([]int32, len(c.nodes))
	for si := 0; si < c.NumSets(); si++ {
		for _, v := range c.nodes[c.offs[si]:c.offs[si+1]] {
			c.cov[pos[v]] = int32(si)
			pos[v]++
		}
	}
}

// coverOf returns the ascending sample indices containing x (nil if x
// appears in no sample).
func (c *Collection) coverOf(x graph.NodeID) []int32 {
	if x < 0 || int(x) >= c.n {
		return nil
	}
	i, ok := slices.BinarySearch(c.keys, x)
	if !ok {
		return nil
	}
	return c.cov[c.koff[i]:c.koff[i+1]]
}

// NumSets returns the number of samples.
func (c *Collection) NumSets() int { return len(c.offs) - 1 }

// NumNodes returns the node-universe size.
func (c *Collection) NumNodes() int { return c.n }

// Roots returns the scale numerator estimates are multiplied by.
func (c *Collection) Roots() int { return c.roots }

// Seed returns the PCG seed the samples were drawn from.
func (c *Collection) Seed() uint64 { return c.seed }

// Samples returns the sample arena itself, in draw order: sample j is
// nodes[offs[j]:offs[j+1]]. Callers must treat both arrays as read-only;
// they are what the snapshot writer persists.
func (c *Collection) Samples() (offs []int32, nodes []graph.NodeID) { return c.offs, c.nodes }

// Bytes returns the resident size of the samples plus their index: every
// array is allocated at its exact length and holds 4-byte elements.
func (c *Collection) Bytes() int64 {
	return 4 * int64(len(c.offs)+len(c.nodes)+len(c.keys)+len(c.koff)+len(c.cov))
}

// hitCount returns |{samples hit by S}| by walking the union of the
// seeds' cover lists with a pooled epoch-marked membership array:
// O(sum of cover-list lengths), no per-call map, no allocation.
func (c *Collection) hitCount(seeds []graph.NodeID) int {
	mk := c.marks.Get().(*marker)
	if mk.epoch == math.MaxUint32 {
		clear(mk.mark)
		mk.epoch = 0
	}
	mk.epoch++
	hits := 0
	for _, s := range seeds {
		for _, si := range c.coverOf(s) {
			if mk.mark[si] != mk.epoch {
				mk.mark[si] = mk.epoch
				hits++
			}
		}
	}
	c.marks.Put(mk)
	return hits
}

// EstimateSpread returns Roots() * (fraction of samples hit by S), the
// unbiased spread estimate for an arbitrary seed set.
func (c *Collection) EstimateSpread(seeds []graph.NodeID) float64 {
	if c.NumSets() == 0 {
		return 0
	}
	return float64(c.roots) * float64(c.hitCount(seeds)) / float64(c.NumSets())
}

// Estimator is the maximum-coverage marginal-gain oracle over a
// Collection: Gain(x) counts the samples containing x that no committed
// seed has covered yet, Add marks x's samples covered. Gain reads only the
// covered bitmap (exact integer counts, no floats to drift), so it
// carries the concurrent-gain marker and the shared celf engine fans the
// first-iteration pass over workers with bit-identical results at any
// worker count. One Estimator holds one selection's state; Collection
// itself stays immutable and reusable.
type Estimator struct {
	c       *Collection
	covered []bool
	count   int // covered samples
}

// Estimator returns a fresh maximum-coverage estimator over the samples.
func (c *Collection) Estimator() *Estimator {
	return &Estimator{c: c, covered: make([]bool, c.NumSets())}
}

// NumNodes returns the node universe size (the candidate universe).
func (e *Estimator) NumNodes() int { return e.c.n }

// Gain returns the number of not-yet-covered samples containing x.
func (e *Estimator) Gain(x graph.NodeID) float64 {
	n := 0
	for _, si := range e.c.coverOf(x) {
		if !e.covered[si] {
			n++
		}
	}
	return float64(n)
}

// Add commits x, marking every sample containing it covered.
func (e *Estimator) Add(x graph.NodeID) {
	for _, si := range e.c.coverOf(x) {
		if !e.covered[si] {
			e.covered[si] = true
			e.count++
		}
	}
}

// ConcurrentGain marks Gain as safe for concurrent calls between Adds.
// Compile-time marker for celf.ConcurrentEstimator; never called.
func (e *Estimator) ConcurrentGain() {}

// SelectSeeds runs greedy maximum coverage over the samples — through the
// shared celf selection engine, like every other seed selector in the
// repository — and returns the chosen seeds plus the implied spread
// estimate for each prefix: spread_i = Roots() * covered_i / NumSets(). The
// candidate pool is the index's sorted key slice, reused as-is (celf
// never mutates it), so the pool order — and therefore the selection — is
// deterministic with no per-call rebuild. Selection stops once no
// candidate covers a new sample (zero-gain seeds are meaningless under
// coverage).
func (c *Collection) SelectSeeds(k int) ([]graph.NodeID, []float64) {
	res := celf.Run(c.Estimator(), k, celf.Options{Candidates: c.keys})
	var seeds []graph.NodeID
	var spreads []float64
	covered := 0.0
	for i, g := range res.Gains {
		if g <= 0 {
			break
		}
		covered += g
		seeds = append(seeds, res.Seeds[i])
		spreads = append(spreads, float64(c.roots)*covered/float64(c.NumSets()))
	}
	return seeds, spreads
}
