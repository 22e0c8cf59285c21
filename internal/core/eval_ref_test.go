package core

import (
	"slices"

	"credist/internal/actionlog"
	"credist/internal/graph"
)

// refEvaluator is the straightforward map-based credit DP the Evaluator
// replaced: per action it scans every participant from the first, tests
// seed membership in a map, and allocates a fresh val slice. It is kept
// as the oracle the flat, reachability-restricted Evaluator must match
// bit for bit.
type refEvaluator struct {
	au        []int32
	actionsOf [][]int32
	props     []*actionlog.Propagation
	gammas    [][][]float64 // per action, per child, aligned with Parents
}

func newRefEvaluator(g *graph.Graph, train *actionlog.Log, model CreditModel) *refEvaluator {
	if model == nil {
		model = SimpleCredit{}
	}
	ev := &refEvaluator{
		au:        make([]int32, train.NumUsers()),
		actionsOf: make([][]int32, train.NumUsers()),
		props:     make([]*actionlog.Propagation, train.NumActions()),
		gammas:    make([][][]float64, train.NumActions()),
	}
	for u := 0; u < train.NumUsers(); u++ {
		ev.au[u] = int32(train.ActionCount(graph.NodeID(u)))
	}
	for a := 0; a < train.NumActions(); a++ {
		p := actionlog.BuildPropagation(train, g, actionlog.ActionID(a))
		ev.props[a] = p
		ga := make([][]float64, len(p.Users))
		for i, u := range p.Users {
			ev.actionsOf[u] = append(ev.actionsOf[u], actionlog.ActionID(a))
			if len(p.Parents[i]) == 0 {
				continue
			}
			gi := make([]float64, len(p.Parents[i]))
			for k, j := range p.Parents[i] {
				gi[k] = model.Gamma(p, int32(i), j)
			}
			ga[i] = gi
		}
		ev.gammas[a] = ga
	}
	return ev
}

func (ev *refEvaluator) Spread(seeds []graph.NodeID) float64 {
	inS := make(map[graph.NodeID]bool, len(seeds))
	spread := 0.0
	for _, s := range seeds {
		if inS[s] {
			continue
		}
		inS[s] = true
		if ev.au[s] > 0 {
			spread += 1
		}
	}
	seen := make(map[actionlog.ActionID]bool)
	for _, s := range seeds {
		for _, a := range ev.actionsOf[s] {
			if seen[a] {
				continue
			}
			seen[a] = true
			spread += ev.actionSpread(a, inS)
		}
	}
	return spread
}

func (ev *refEvaluator) actionSpread(a actionlog.ActionID, inS map[graph.NodeID]bool) float64 {
	p := ev.props[a]
	val := make([]float64, len(p.Users))
	total := 0.0
	for i, u := range p.Users {
		if inS[u] {
			val[i] = 1
			continue
		}
		sum := 0.0
		gi := ev.gammas[a][i]
		for k, j := range p.Parents[i] {
			if val[j] > 0 {
				sum += val[j] * gi[k]
			}
		}
		val[i] = sum
		if sum > 0 {
			total += sum / float64(ev.au[u])
		}
	}
	return total
}

func (ev *refEvaluator) SpreadObj(seeds []graph.NodeID, obj *Objective) float64 {
	if obj.IsDefault() {
		return ev.Spread(seeds)
	}
	inS := make(map[graph.NodeID]bool, len(seeds))
	for _, s := range seeds {
		inS[s] = true
	}
	spread := 0.0
	seen := make(map[actionlog.ActionID]bool)
	for _, s := range seeds {
		for _, a := range ev.actionsOf[s] {
			if seen[a] {
				continue
			}
			seen[a] = true
			spread += ev.actionSpreadObj(a, inS, obj)
		}
	}
	return spread
}

func (ev *refEvaluator) actionSpreadObj(a actionlog.ActionID, inS map[graph.NodeID]bool, obj *Objective) float64 {
	p := ev.props[a]
	val := make([]float64, len(p.Users))
	total := 0.0
	for i, u := range p.Users {
		f := obj.weight(u)
		if f != 0 && obj.Windowed && p.Times[i]-p.Times[0] > obj.Tau {
			f = 0
		}
		if inS[u] {
			val[i] = 1
			if f != 0 {
				total += f / float64(ev.au[u])
			}
			continue
		}
		sum := 0.0
		gi := ev.gammas[a][i]
		for k, j := range p.Parents[i] {
			if val[j] > 0 {
				sum += val[j] * gi[k]
			}
		}
		val[i] = sum
		if sum > 0 && f != 0 {
			total += f * sum / float64(ev.au[u])
		}
	}
	return total
}

func (ev *refEvaluator) SetCredit(a actionlog.ActionID, seeds []graph.NodeID, u graph.NodeID) float64 {
	inS := make(map[graph.NodeID]bool, len(seeds))
	for _, s := range seeds {
		inS[s] = true
	}
	if inS[u] {
		return 1
	}
	p := ev.props[a]
	target := int32(slices.Index(p.Users, u))
	if target < 0 {
		return 0
	}
	val := make([]float64, len(p.Users))
	for i := range p.Users {
		if inS[p.Users[i]] {
			val[i] = 1
			continue
		}
		sum := 0.0
		gi := ev.gammas[a][i]
		for k, j := range p.Parents[i] {
			sum += val[j] * gi[k]
		}
		val[i] = sum
		if int32(i) == target {
			break
		}
	}
	return val[target]
}
