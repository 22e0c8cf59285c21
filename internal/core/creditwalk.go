package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"

	"credist/internal/graph"
)

// CreditWalkSource samples the CD spread objective by reverse credit
// walks over the evaluator's propagation DAGs. It is the approximate
// tier's RR-sample source, satisfying internal/ris's structural Source
// interface without core importing ris.
//
// The construction makes the estimator exactly unbiased for sigma_cd
// (Eq. 8), not merely for a proxy diffusion model: the credit DP that
// defines Gamma_{S,u}(a) — val[i] = 1 if u_i is a seed, else
// sum_j val[parent j] * gamma_j — is precisely the hit probability of a
// stochastic walk that, standing at participant i, steps to parent j
// with probability gamma_j and stops with the leftover probability
// 1 - sum gamma (the CreditModel contract guarantees sum gamma <= 1).
// So with a root u drawn uniformly from the active users (A_u > 0), an
// action a drawn uniformly from u's A_u actions, and the walk path
// recorded from u, Pr[path intersects S] = sigma_cd(S) / Roots(): a
// sampled root inside S hits with probability 1 (its kappa is exactly 1),
// and every other root contributes Gamma_{S,u}(a)/A_u in expectation.
// Scaling the hit fraction by Roots() therefore converges to the exact
// Evaluator.Spread value, which is what lets the serving tier report a
// genuine confidence interval around the exact answer.
//
// Every choice the walk makes is a deterministic function of the rng
// stream and the evaluator's frozen structures (roots ascending, action
// lists in log order, parents in chronological order), so sampling is
// bit-identical across processes and restarts for a given seed.
type CreditWalkSource struct {
	ev    *Evaluator
	roots []graph.NodeID // users with A_u > 0, ascending
}

// CreditWalks returns the reverse credit-walk sample source over the
// evaluator's training propagations. It fails only when no user performed
// any action (nothing to sample; sigma_cd is identically zero there).
func (ev *Evaluator) CreditWalks() (*CreditWalkSource, error) {
	var roots []graph.NodeID
	for u := 0; u < ev.numUsers; u++ {
		if ev.au[u] > 0 {
			roots = append(roots, graph.NodeID(u))
		}
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("core: credit walks need at least one active user")
	}
	return &CreditWalkSource{ev: ev, roots: roots}, nil
}

// NumNodes returns the user-universe size.
func (s *CreditWalkSource) NumNodes() int { return s.ev.numUsers }

// Roots returns the number of active users — the estimate's scale
// numerator N+: sigma_cd(S) = N+ * Pr[a walk path hits S].
func (s *CreditWalkSource) Roots() int { return len(s.roots) }

// NewWalker returns a sampling closure appending one walk path to dst
// per call. Walkers are independent and allocate nothing of their own;
// the striped collector runs one per stripe over a per-worker buffer.
func (s *CreditWalkSource) NewWalker() func(rng *rand.Rand, dst []graph.NodeID) []graph.NodeID {
	return func(rng *rand.Rand, dst []graph.NodeID) []graph.NodeID {
		u := s.roots[rng.IntN(len(s.roots))]
		acts := s.ev.acts[u]
		return s.walk(acts[rng.IntN(len(acts))], rng, dst)
	}
}

// walk appends to path one reverse credit walk through propagation ua.a
// starting at participant ua.i: step to parent j with probability
// gamma_j, stop with the leftover mass. Chronological indices strictly
// decrease, so the path is duplicate-free and at most the propagation
// depth long; the root is always included (a seed root is a guaranteed
// hit, mirroring its unit kappa in Evaluator.Spread).
func (s *CreditWalkSource) walk(ua userAct, rng *rand.Rand, path []graph.NodeID) []graph.NodeID {
	d := &s.ev.dags[ua.a]
	i := ua.i
	path = append(path, d.users[i])
	for {
		lo, hi := d.off[i], d.off[i+1]
		if lo == hi {
			return path
		}
		x := rng.Float64()
		acc := 0.0
		next := int32(-1)
		for k := lo; k < hi; k++ {
			acc += d.gam[k]
			if x < acc {
				next = d.par[k]
				break
			}
		}
		if next < 0 {
			return path
		}
		i = next
		path = append(path, d.users[i])
	}
}

// RRSketch is the persisted form of the approximate tier's RR-sample
// collection: the PCG seed the stripes were drawn from, the root count
// the estimates scale by, and the samples themselves in draw order, as
// the same flat arena the collection holds — sample j is
// Nodes[Offs[j]:Offs[j+1]]. A version-5 snapshot carries one so a
// restarted server answers its first approximate query with zero
// sampling work; because stripes are per-stream deterministic, a
// restored sketch also grows bit-identically to a continuous collection.
type RRSketch struct {
	Seed  uint64
	Roots int
	Offs  []int32 // NumSets()+1 entries, Offs[0] == 0
	Nodes []graph.NodeID
}

// NumSets returns the number of samples the sketch holds.
func (sk *RRSketch) NumSets() int { return max(len(sk.Offs)-1, 0) }

// Validate enforces the structural rules writer and reader share (so the
// writer can never produce a sketch section every load refuses): at least
// one sample, offsets spanning the arena with every sample non-empty, ids
// inside the universe, and a root count in [1, numUsers].
func (sk *RRSketch) Validate(numUsers int) error {
	if sk.NumSets() == 0 {
		return fmt.Errorf("core: RR sketch has no samples")
	}
	if sk.Roots < 1 || sk.Roots > numUsers {
		return fmt.Errorf("core: RR sketch root count %d outside [1,%d]", sk.Roots, numUsers)
	}
	if sk.Offs[0] != 0 || int(sk.Offs[len(sk.Offs)-1]) != len(sk.Nodes) {
		return fmt.Errorf("core: RR sketch offsets do not span its %d entries", len(sk.Nodes))
	}
	for i := 1; i < len(sk.Offs); i++ {
		if sk.Offs[i] <= sk.Offs[i-1] {
			return fmt.Errorf("core: RR sample %d is empty", i-1)
		}
	}
	for i, v := range sk.Nodes {
		if v < 0 || int(v) >= numUsers {
			return fmt.Errorf("core: RR sketch entry %d node %d outside [0,%d)", i, v, numUsers)
		}
	}
	return nil
}

// writeSketchSection emits the version-5 RR-sketch section. Every field
// is written verbatim and count-prefixed, so the encoding of a given
// sketch is unique and an accepted file re-encodes byte for byte.
func writeSketchSection(sw *snapWriter, sk *RRSketch) {
	sw.u64(sk.Seed)
	sw.u32(uint32(sk.Roots))
	sw.u32(uint32(sk.NumSets()))
	for j := 0; j < sk.NumSets(); j++ {
		set := sk.Nodes[sk.Offs[j]:sk.Offs[j+1]]
		sw.u32(uint32(len(set)))
		for _, v := range set {
			sw.u32(uint32(v))
		}
	}
}

// parseSketchSection parses the version-5 RR-sketch section, enforcing
// exactly the rules RRSketch.Validate states. A first pass over the
// length prefixes sizes the arena, so the whole sketch decodes into two
// allocations however many samples it holds.
func parseSketchSection(sc *snapCursor, numUsers int) (*RRSketch, error) {
	sk := &RRSketch{Seed: sc.u64()}
	roots := sc.u32()
	if sc.err == nil && (roots < 1 || int(roots) > numUsers) {
		sc.fail("RR sketch root count %d outside [1,%d]", roots, numUsers)
	}
	sk.Roots = int(roots)
	n := sc.count("RR sample", 4)
	if sc.err == nil && n == 0 {
		sc.fail("version-5 snapshot with an empty RR sketch")
	}
	start, total := sc.off, 0
	for i := 0; i < n && sc.err == nil; i++ {
		l := sc.count("RR sample entry", 4)
		if sc.err == nil && l == 0 {
			sc.fail("RR sample %d is empty", i)
		}
		sc.take(4 * l)
		total += l
	}
	if sc.err == nil && total > math.MaxInt32 {
		sc.fail("RR sketch holds %d entries, more than its offsets can address", total)
	}
	if sc.err != nil {
		return sk, sc.err
	}
	sc.off = start
	sk.Offs = make([]int32, n+1)
	sk.Nodes = make([]graph.NodeID, total)
	at := 0
	for i := 0; i < n; i++ {
		l := int(sc.u32())
		b := sc.take(4 * l)
		for j := range l {
			v := binary.LittleEndian.Uint32(b[4*j:])
			if int(v) >= numUsers {
				sc.fail("RR sample %d node %d outside [0,%d)", i, v, numUsers)
				return sk, sc.err
			}
			sk.Nodes[at+j] = graph.NodeID(v)
		}
		at += l
		sk.Offs[i+1] = int32(at)
	}
	return sk, nil
}
