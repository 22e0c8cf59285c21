package probs

import (
	"credist/internal/actionlog"
	"credist/internal/cascade"
	"credist/internal/graph"
)

// LearnLTWeights learns Linear Threshold edge weights from the training
// log as the paper describes (Section 6, "Methods Compared", following
// Goyal et al., WSDM 2010): the weight of edge (v,u) is A_{v2u}/N, where
// A_{v2u} is the number of actions that propagated from v to u (v a
// neighbor of u acting strictly earlier) and N is a per-node normalizer
// keeping the incoming weights of u at most 1. We take
// N = max(A_u, sum_v A_{v2u}): weights are attributable-action fractions
// of u's activity, scaled down only when multi-parent propagations push
// the raw sum past the LT model's cap.
//
// Nodes with no incoming propagation evidence keep all-zero in-weights.
func LearnLTWeights(g *graph.Graph, train *actionlog.Log) *cascade.Weights {
	counts := propagationCounts(g, train)
	edges := g.Edges()
	// Per-node normalizer.
	totals := make([]float64, g.NumNodes())
	for e, ed := range edges {
		totals[ed.To] += float64(counts[e])
	}

	w := cascade.NewWeights(g)
	for e, ed := range edges {
		n := max(totals[ed.To], float64(train.ActionCount(ed.To)))
		if counts[e] == 0 || n <= 0 {
			continue
		}
		if err := w.Set(ed.From, ed.To, float64(counts[e])/n); err != nil {
			panic(err) // edges come from g by construction
		}
	}
	return w
}

// propagationCounts returns A_{v2u} per graph edge, at the edge's
// from-major position (its index in g.Edges()).
func propagationCounts(g *graph.Graph, train *actionlog.Log) []int {
	counts := make([]int, g.NumEdges())
	for a := 0; a < train.NumActions(); a++ {
		prop := actionlog.BuildPropagation(train, g, actionlog.ActionID(a))
		for i, u := range prop.Users {
			for _, j := range prop.Parents[i] {
				counts[g.EdgeIndex(prop.Users[j], u)]++
			}
		}
	}
	return counts
}
