package graph

import "sort"

// PageRank's damping (the probability of following an out-link), its
// power-iteration cap and its L1 convergence tolerance. The damping is
// typed: 1-pageRankDamping then starts from the float64 nearest 0.85, as
// runtime arithmetic does, where an untyped constant would fold 1-0.85
// exactly and round to a different float64.
const (
	pageRankDamping float64 = 0.85
	pageRankMaxIter         = 100
	pageRankTol     float64 = 1e-9
)

// PageRank computes PageRank scores by power iteration. Scores sum to 1.
// Dangling nodes (no out-edges) distribute their mass uniformly, the
// standard correction.
//
// The paper uses PageRank as one of the heuristic seed-selection baselines
// in the "Spread Achieved" experiment (Figure 6). Note that for influence,
// rank should accumulate along *reversed* edges (a node is influential if
// influenced nodes point at it); callers who want the influence-oriented
// variant should run PageRank on g.Transpose(), as cmd/experiments does.
func PageRank(g *Graph) []float64 {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	for iter := 0; iter < pageRankMaxIter; iter++ {
		dangling := 0.0
		for i := range next {
			next[i] = 0
		}
		for u := int32(0); u < int32(n); u++ {
			out := g.Out(u)
			if len(out) == 0 {
				dangling += rank[u]
				continue
			}
			share := rank[u] / float64(len(out))
			for _, v := range out {
				next[v] += share
			}
		}
		base := (1-pageRankDamping)*inv + pageRankDamping*dangling*inv
		delta := 0.0
		for i := range next {
			v := base + pageRankDamping*next[i]
			d := v - rank[i]
			if d < 0 {
				d = -d
			}
			delta += d
			rank[i] = v
		}
		if delta < pageRankTol {
			break
		}
	}
	return rank
}

// TopKByScore returns the ids of the k highest-scoring nodes, ties broken
// by lower id. If k exceeds the node count every node is returned.
func TopKByScore(scores []float64, k int) []NodeID {
	ids := make([]NodeID, len(scores))
	for i := range ids {
		ids[i] = NodeID(i)
	}
	if k > len(ids) {
		k = len(ids)
	}
	// Full sort keeps the tie-break deterministic; n is small enough in all
	// callers (seed selection with k<=50 over <=10^6 nodes) that partial
	// selection would be a premature optimization.
	sort.Slice(ids, func(i, j int) bool {
		si, sj := scores[ids[i]], scores[ids[j]]
		if si != sj {
			return si > sj
		}
		return ids[i] < ids[j]
	})
	return ids[:k]
}
