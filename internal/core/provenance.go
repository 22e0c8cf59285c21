// Influence provenance: why-provenance over UC credits.
//
// Every number the model reports — a marginal gain, a spread, a seed
// choice — is a sum of per-action credit cells UC[v][u][a] produced by
// the Algorithm 2 scan, so every answer has a traceable origin. This
// file exposes it two ways, both read straight from the scanned shards:
//
//   - ExplainSeed(x, top) decomposes Gain(x) into (influencer →
//     influenced, action) credit paths by running the Gain fold itself
//     and recording each row it folds, so the per-action contributions
//     sum bit-exactly to the reported gain at any worker count.
//   - ExplainReach(S, v) decomposes the credit reaching target v by
//     seed and action: per seed s (in input order), the shares
//     UC[s][v][a]/A_v folded in ascending action order. A cell
//     UC[s][v][a] exists only when both s and v performed a, so the walk
//     visits just the intersection of the two users' ascending action
//     lists. Credits are additive across seeds, so per-seed subtotals
//     sum bit-exactly to the total.
package core

import (
	"slices"

	"credist/internal/actionlog"
	"credist/internal/graph"
)

// ProvPath is one explained credit path: the credit influencer earned
// for influenced's participation in one action, normalized the way the
// explained answer counts it.
type ProvPath struct {
	Influencer graph.NodeID
	Influenced graph.NodeID
	Action     actionlog.ActionID
	Credit     float64
}

// SeedExplanation decomposes one candidate's marginal gain. Gain is
// bit-identical to Probe.Gain(Node, nil) on the same probe; Paths holds the
// top paths by credit (self-activation paths appear as Influencer ==
// Influenced) out of TotalPaths.
type SeedExplanation struct {
	Node       graph.NodeID
	Gain       float64
	Paths      []ProvPath
	TotalPaths int
}

// ReachShare is one seed's slice of an explained reach total.
type ReachShare struct {
	Seed  graph.NodeID
	Share float64
}

// ReachExplanation decomposes the credit reaching one target by seed and
// action. PerSeed is parallel to the query's seed order, and Total is
// the fixed-order fold of the PerSeed shares — so the decomposition sums
// bit-exactly to the total at any worker or partition count.
type ReachExplanation struct {
	Target     graph.NodeID
	Total      float64
	PerSeed    []ReachShare
	Paths      []ProvPath
	TotalPaths int
}

// ExplainSeed decomposes Gain(x, nil) against the probe's commits into
// credit paths: the 1/A_x self-activation credit plus every cell of x's
// replayed rows, each discounted by the committed-seed factor (1 - SC).
// The gain is the probe's own gainSum over the same replayed rows, whose
// row callback records each path as it hands the row over, so the
// returned Gain is bit-for-bit Gain(x, nil) by construction. A committed
// seed explains as 0 with no paths. Read-only.
func (p *Probe) ExplainSeed(x graph.NodeID, top int) SeedExplanation {
	ex := SeedExplanation{Node: x}
	if p.committed(x) {
		return ex
	}
	e := p.e
	ax := float64(e.au[x])
	var paths []ProvPath
	ex.Gain = e.gainSum(x, nil, func(_ int, a int32) ([]ucEntry, float64) {
		row, scx := p.replay(int32(x), a)
		paths = append(paths, ProvPath{Influencer: x, Influenced: x, Action: a, Credit: (1.0 / ax) * (1 - scx)})
		for _, en := range row {
			paths = append(paths, ProvPath{
				Influencer: x, Influenced: en.u, Action: a,
				Credit: (en.c / float64(e.au[en.u])) * (1 - scx),
			})
		}
		return row, scx
	})
	ex.TotalPaths = len(paths)
	ex.Paths = TopProvPaths(paths, top)
	return ex
}

// reachPaths returns seed s's slice of the credit reaching target v, read
// through the probe's replay of s's rows: the shares UC[s][v][a]/A_v
// folded in ascending action order, one path per contributing action.
// Only actions both s and v performed can hold a cell (s, v), so the walk
// merges the two ascending action lists and looks v up in s's row of each
// common action. The seed's own activation (the 1/A_v self term of its
// gain) is not a credit path and does not appear. A committed seed is no
// longer part of V-S: its row contributes nothing. A committed target
// keeps no credit cells either, because the replay drops every cell
// (s, v) of a seed v.
func (p *Probe) reachPaths(s, v graph.NodeID) (float64, []ProvPath) {
	e := p.e
	av := float64(e.au[v])
	if av == 0 || p.committed(s) {
		return 0, nil
	}
	share := 0.0
	var paths []ProvPath
	as, vs := e.actionsOf[s], e.actionsOf[v]
	for i, j := 0, 0; i < len(as) && j < len(vs); {
		switch a := as[i]; {
		case a < vs[j]:
			i++
		case a > vs[j]:
			j++
		default:
			i, j = i+1, j+1
			row, _ := p.replay(int32(s), a)
			if k, ok := searchRow(row, int32(v)); ok {
				c := row[k].c / av
				share += c
				paths = append(paths, ProvPath{Influencer: s, Influenced: v, Action: a, Credit: c})
			}
		}
	}
	return share, paths
}

// ExplainReach decomposes the credit reaching target v from the given
// seeds against the probe's commits: per-seed shares in input order
// (duplicate seeds each count, so callers wanting set semantics
// deduplicate first), their fixed-order fold as the total, and the top
// paths by credit. Every seed's rows are read through the replay (see
// reachPaths).
func (p *Probe) ExplainReach(seeds []graph.NodeID, v graph.NodeID, top int) ReachExplanation {
	ex := ReachExplanation{Target: v, PerSeed: make([]ReachShare, 0, len(seeds))}
	var paths []ProvPath
	for _, s := range seeds {
		share, ps := p.reachPaths(s, v)
		ex.PerSeed = append(ex.PerSeed, ReachShare{Seed: s, Share: share})
		ex.Total += share
		paths = append(paths, ps...)
	}
	ex.TotalPaths = len(paths)
	ex.Paths = TopProvPaths(paths, top)
	return ex
}

// TopProvPaths sorts paths by descending credit — ties broken by
// (influencer, influenced, action) ascending, so the order is a
// deterministic total order — and truncates to the top n (n <= 0 keeps
// none). It sorts in place and returns a clipped view of its argument.
func TopProvPaths(paths []ProvPath, n int) []ProvPath {
	slices.SortFunc(paths, func(a, b ProvPath) int {
		switch {
		case a.Credit > b.Credit:
			return -1
		case a.Credit < b.Credit:
			return 1
		case a.Influencer != b.Influencer:
			return int(a.Influencer) - int(b.Influencer)
		case a.Influenced != b.Influenced:
			return int(a.Influenced) - int(b.Influenced)
		default:
			return int(a.Action) - int(b.Action)
		}
	})
	if n < 0 {
		n = 0
	}
	if n > len(paths) {
		n = len(paths)
	}
	return paths[:n]
}
