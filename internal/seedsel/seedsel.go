// Package seedsel implements seed-set selection: the greedy algorithm of
// Kempe et al. (Algorithm 1), its CELF lazy-forward optimization
// (Leskovec et al., used as Algorithm 3 in the paper), and the High-Degree
// and PageRank heuristic baselines of the "Spread Achieved" experiment.
// All selectors work against the Estimator interface, so one greedy serves
// the CD engine, Monte-Carlo IC/LT estimation, and the PMIA/LDAG
// heuristics alike.
//
// CELF here is a thin veneer over internal/celf, the shared
// seed-selection engine every path in the repository routes through
// (facade, serving layer, experiments, RIS): estimators that mark
// themselves concurrency-safe (celf.ConcurrentEstimator, e.g. the CD
// engine) get the parallel first-iteration gain pass automatically, and
// everything else runs the classic serial lazy-forward loop. Greedy stays
// here as the O(nk) reference the ablation benchmarks compare against.
package seedsel

import (
	"time"

	"credist/internal/celf"
	"credist/internal/graph"
)

// Estimator exposes the marginal-gain oracle the greedy algorithm needs.
// Implementations carry the current seed set as internal state: Gain must
// be side-effect free, Add commits a seed.
type Estimator interface {
	// NumNodes returns the candidate universe size (node ids 0..n-1).
	NumNodes() int
	// Gain returns sigma(S+x) - sigma(S) for the current seed set S.
	Gain(x graph.NodeID) float64
	// Add commits x to the seed set.
	Add(x graph.NodeID)
}

// Result reports a selection run; it is the shared engine's result type.
// Gains[i] is the marginal gain of Seeds[i] when it was selected (the
// cumulative sum is the estimated spread of each prefix), Lookups counts
// Gain evaluations — the paper's measure of how much work CELF saves over
// plain greedy — and Elapsed[i] is the wall time until Seeds[i] was
// committed, the series behind the paper's running-time figure.
type Result = celf.Result

// Greedy runs the plain greedy algorithm (Algorithm 1): every round it
// re-evaluates the marginal gain of every candidate. Exponentially wasteful
// compared to CELF but the reference the ablation benchmarks compare
// against.
func Greedy(est Estimator, k int) Result {
	n := est.NumNodes()
	candidates := make([]graph.NodeID, n)
	for i := range candidates {
		candidates[i] = graph.NodeID(i)
	}
	return GreedyCandidates(est, k, candidates)
}

// GreedyCandidates is Greedy restricted to a candidate pool.
func GreedyCandidates(est Estimator, k int, candidates []graph.NodeID) Result {
	var res Result
	start := time.Now()
	chosen := make(map[graph.NodeID]bool, k)
	for len(res.Seeds) < k && len(res.Seeds) < len(candidates) {
		best := graph.NodeID(-1)
		bestGain := -1.0
		for _, x := range candidates {
			if chosen[x] {
				continue
			}
			g := est.Gain(x)
			res.Lookups++
			if g > bestGain || (g == bestGain && (best == -1 || x < best)) {
				best, bestGain = x, g
			}
		}
		if best == -1 {
			break
		}
		est.Add(best)
		chosen[best] = true
		res.Seeds = append(res.Seeds, best)
		res.Gains = append(res.Gains, bestGain)
		res.LookupsAt = append(res.LookupsAt, int64(res.Lookups))
		res.Elapsed = append(res.Elapsed, time.Since(start))
	}
	return res
}

// CELF runs greedy with the lazy-forward optimization via the shared
// engine: submodularity guarantees a candidate's marginal gain only
// shrinks as the seed set grows, so a candidate whose cached gain is
// stale is re-evaluated only when it reaches the top of the priority
// queue. Identical output to Greedy (up to floating-point ties), far
// fewer Gain calls.
func CELF(est Estimator, k int) Result {
	return celf.Run(est, k, celf.Options{})
}

// HighDegree returns the k nodes of largest out-degree (ties by id), the
// paper's "High Degree" baseline.
func HighDegree(g *graph.Graph, k int) []graph.NodeID {
	scores := make([]float64, g.NumNodes())
	for u := range scores {
		scores[u] = float64(g.OutDegree(graph.NodeID(u)))
	}
	return graph.TopKByScore(scores, k)
}

// PageRankSeeds returns the k top nodes by PageRank over the reversed
// graph, so that rank flows from the influenced toward influencers.
func PageRankSeeds(g *graph.Graph, k int) []graph.NodeID {
	scores := graph.PageRank(g.Transpose())
	return graph.TopKByScore(scores, k)
}
