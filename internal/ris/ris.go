// Package ris implements reverse influence sampling (Borgs et al. 2014,
// the foundation of TIM/IMM): sample reverse-reachable (RR) sets, then
// pick seeds by greedy maximum coverage over the samples and estimate the
// spread of arbitrary sets as Roots * Pr[S hits a random sample]. The
// sampling distribution is pluggable (Source): the classic live-edge
// cascade sampler backs the ablation baseline, and the CD credit-walk
// source in internal/core backs the serving layer's approximate tier.
//
// Collections are drawn in fixed-width stripes, one PCG stream per stripe
// (stripe i owns samples [i*b, (i+1)*b)), so a collection's contents are
// bit-identical at any worker count and under any growth path — the same
// determinism wall the selection engine enforces. On top of the samples
// sit Wilson/Hoeffding confidence intervals over the hit fraction, which
// turn the point estimate into a bounded-error answer and drive adaptive
// sample growth.
package ris

import (
	"math"
	"math/rand/v2"

	"credist/internal/cascade"
	"credist/internal/graph"
)

// Sampler draws reverse-reachable sets under IC or LT semantics.
type Sampler struct {
	w        *cascade.Weights
	model    cascade.Model
	mark     []uint32
	epoch    uint32
	frontier []graph.NodeID // traversal stack, reused across samples
}

// NewSampler returns a sampler over the weighted graph.
func NewSampler(w *cascade.Weights, model cascade.Model) *Sampler {
	return &Sampler{w: w, model: model, mark: make([]uint32, w.Graph().NumNodes())}
}

// Sample draws one RR set — the nodes that would have influenced a
// uniformly random target in one random possible world — and returns dst
// with the set appended. Edges are realized lazily during the reverse
// traversal, which is distributionally identical to sampling the whole
// world first.
func (s *Sampler) Sample(rng *rand.Rand, dst []graph.NodeID) []graph.NodeID {
	root := graph.NodeID(rng.IntN(s.w.Graph().NumNodes()))
	return s.SampleFrom(root, rng, dst)
}

// SampleFrom appends the RR set of a chosen target node to dst.
func (s *Sampler) SampleFrom(root graph.NodeID, rng *rand.Rand, dst []graph.NodeID) []graph.NodeID {
	g := s.w.Graph()
	s.epoch++
	s.mark[root] = s.epoch
	set := append(dst, root)
	frontier := append(s.frontier[:0], root)
	for len(frontier) > 0 {
		u := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		in := g.In(u)
		probs := s.w.InRow(u)
		switch s.model {
		case cascade.IC:
			// Each in-edge is live independently.
			for i, v := range in {
				if s.mark[v] == s.epoch {
					continue
				}
				if p := probs[i]; p > 0 && rng.Float64() < p {
					s.mark[v] = s.epoch
					set = append(set, v)
					frontier = append(frontier, v)
				}
			}
		case cascade.LT:
			// At most one in-edge is live, chosen by weight.
			x := rng.Float64()
			acc := 0.0
			for i, v := range in {
				acc += probs[i]
				if x < acc {
					if s.mark[v] != s.epoch {
						s.mark[v] = s.epoch
						set = append(set, v)
						frontier = append(frontier, v)
					}
					break
				}
			}
		}
	}
	s.frontier = frontier
	return set
}

// RecommendedSamples returns a practical sample count for (n, k,
// epsilon): the simplified TIM bound O((k log n + log 2) * n / eps^2)
// divided by the expected RR-set mass, capped for laptop use. It is a
// heuristic default, not the full theta-estimation machinery of TIM+.
func RecommendedSamples(n, k int, eps float64) int {
	if eps <= 0 {
		eps = 0.2
	}
	logN := 0.0
	if n > 1 {
		logN = math.Ceil(math.Log2(float64(n)))
	}
	count := int((float64(k)*logN + math.Ln2) / (eps * eps) * 8)
	if count < 1000 {
		count = 1000
	}
	if count > 500000 {
		count = 500000
	}
	return count
}
