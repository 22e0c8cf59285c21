package probs

import (
	"credist/internal/actionlog"
	"credist/internal/cascade"
	"credist/internal/graph"
)

// This file implements the influence-probability models of Goyal, Bonchi &
// Lakshmanan, "Learning influence probabilities in social networks" (WSDM
// 2010) — reference [7] of the paper, whose ideas (time-decayed influence,
// per-user influenceability) the credit-distribution model builds on. The
// static models here give additional trace-based baselines for the IC
// model beyond Saito et al.'s EM, and are exercised by the method-ablation
// benchmarks.

// GoyalModel selects one of the static influence models of WSDM 2010.
type GoyalModel int

const (
	// Bernoulli estimates p(v,u) = A_{v2u} / A_v: the fraction of v's
	// actions that propagated to u.
	Bernoulli GoyalModel = iota
	// Jaccard estimates p(v,u) = A_{v2u} / A_{v|u}, normalizing by the
	// number of actions either endpoint performed.
	Jaccard
	// PartialCredits splits each activation's credit equally among the
	// potential influencers before counting: p(v,u) =
	// (sum over propagated actions of 1/d_in(u,a)) / A_v.
	PartialCredits
)

// String returns the model's conventional name.
func (m GoyalModel) String() string {
	switch m {
	case Bernoulli:
		return "Bernoulli"
	case Jaccard:
		return "Jaccard"
	case PartialCredits:
		return "PartialCredits"
	default:
		return "unknown"
	}
}

// LearnGoyal learns static influence probabilities from the training log
// under the chosen model. Edges with no propagation evidence get
// probability zero.
func LearnGoyal(g *graph.Graph, train *actionlog.Log, model GoyalModel) *cascade.Weights {
	// Per-edge accumulators at the edge's from-major position: propagated
	// count (possibly fractional under partial credits) and co-action
	// count for Jaccard's union.
	prop := make([]float64, g.NumEdges())
	both := make([]int, g.NumEdges())
	ix := actionlog.NewUserIndex(g.NumNodes())
	for a := 0; a < train.NumActions(); a++ {
		p := actionlog.BuildPropagation(train, g, actionlog.ActionID(a))
		ix.Load(p.Users)
		for i, u := range p.Users {
			for _, v := range g.In(u) {
				j := ix.Of(v)
				if j < 0 {
					continue
				}
				e := g.EdgeIndex(v, u)
				both[e]++
				if p.Times[j] < p.Times[i] {
					if model == PartialCredits {
						prop[e] += 1.0 / float64(len(p.Parents[i]))
					} else {
						prop[e]++
					}
				}
			}
		}
	}

	w := cascade.NewWeights(g)
	for e, ed := range g.Edges() {
		if prop[e] <= 0 {
			continue
		}
		var denom float64
		switch model {
		case Bernoulli, PartialCredits:
			denom = float64(train.ActionCount(ed.From))
		case Jaccard:
			// |A_v ∪ A_u| = A_v + A_u - both.
			denom = float64(train.ActionCount(ed.From)+train.ActionCount(ed.To)) - float64(both[e])
		}
		if denom <= 0 {
			continue
		}
		p := prop[e] / denom
		if p > 1 {
			p = 1
		}
		if err := w.Set(ed.From, ed.To, p); err != nil {
			panic(err) // edges come from g by construction
		}
	}
	return w
}
