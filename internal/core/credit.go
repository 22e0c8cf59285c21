// Package core implements the paper's primary contribution: the credit
// distribution (CD) model. It provides the direct-credit rules (simple
// 1/d_in and the time-aware rule of Eq. 9 with learned per-edge delays and
// per-user influenceability), the action-log Scan that builds the UC
// structure (Algorithm 2), the incremental marginal-gain engine used by
// greedy/CELF seed selection (Algorithms 3-5, Theorem 3, Lemmas 1-3), and
// an exact evaluator of the spread objective sigma_cd (Eq. 8).
package core

import (
	"math"
	"slices"

	"credist/internal/actionlog"
	"credist/internal/graph"
)

// CreditModel computes the direct influence credit gamma_{v,u}(a) that the
// child participant of a propagation gives to one of its potential
// influencers. Implementations must guarantee the credits a child assigns
// sum to at most 1 (the model's normalization constraint).
type CreditModel interface {
	// Gamma returns gamma for the edge parent->child of propagation p,
	// where child and parent are chronological indices into p.Users and
	// parent is one of p.Parents[child].
	Gamma(p *actionlog.Propagation, child, parent int32) float64
}

// SimpleCredit is the equal-split rule gamma_{v,u}(a) = 1/d_in(u, a) used
// throughout Section 4's exposition.
type SimpleCredit struct{}

// Gamma implements CreditModel.
func (SimpleCredit) Gamma(p *actionlog.Propagation, child, _ int32) float64 {
	return 1.0 / float64(len(p.Parents[child]))
}

// TimeAwareCredit is the paper's Eq. (9) rule:
//
//	gamma_{v,u}(a) = infl(u)/d_in(u,a) * exp(-(t(u,a)-t(v,a))/tau_{v,u})
//
// where tau_{v,u} is the average observed propagation delay on the edge and
// infl(u) is u's influenceability. Both are learned from the training log
// by LearnTimeAware. The delays are stored keyed by v in compressed sparse
// rows over the influenceability universe: v's edges are tauTo[tauOff[v]:
// tauOff[v+1]], ascending, with their delays at the same positions of
// tauVal.
type TimeAwareCredit struct {
	infl   []float64
	tauOff []int32
	tauTo  []graph.NodeID
	tauVal []float64
}

// newTimeAware returns parameters over infl with room for tauCount delay
// edges. Callers add them with addTau in strictly ascending (from, to)
// order, every endpoint inside infl's universe, then call sealTau.
func newTimeAware(infl []float64, tauCount int) *TimeAwareCredit {
	return &TimeAwareCredit{
		infl:   infl,
		tauOff: make([]int32, len(infl)+1),
		tauTo:  make([]graph.NodeID, 0, tauCount),
		tauVal: make([]float64, 0, tauCount),
	}
}

func (c *TimeAwareCredit) addTau(v, u graph.NodeID, tau float64) {
	c.tauOff[v+1]++
	c.tauTo = append(c.tauTo, u)
	c.tauVal = append(c.tauVal, tau)
}

// sealTau turns the per-row counts addTau left into row offsets.
func (c *TimeAwareCredit) sealTau() {
	for v := 1; v < len(c.tauOff); v++ {
		c.tauOff[v] += c.tauOff[v-1]
	}
}

// eachTau calls fn on every delay edge in ascending (from, to) order.
func (c *TimeAwareCredit) eachTau(fn func(v, u graph.NodeID, tau float64)) {
	for v := 0; v+1 < len(c.tauOff); v++ {
		for k := c.tauOff[v]; k < c.tauOff[v+1]; k++ {
			fn(graph.NodeID(v), c.tauTo[k], c.tauVal[k])
		}
	}
}

// Gamma implements CreditModel.
func (c *TimeAwareCredit) Gamma(p *actionlog.Propagation, child, parent int32) float64 {
	u := p.Users[child]
	tau, ok := c.Tau(p.Users[parent], u)
	if !ok || tau <= 0 {
		// No delay evidence for this edge in training: influence decayed
		// beyond observation; give no credit.
		return 0
	}
	dt := p.Times[child] - p.Times[parent]
	return c.infl[u] / float64(len(p.Parents[child])) * math.Exp(-dt/tau)
}

// Tau returns the learned mean propagation delay of edge (v,u) and whether
// any delay was observed.
func (c *TimeAwareCredit) Tau(v, u graph.NodeID) (float64, bool) {
	if int(v) < len(c.tauOff)-1 {
		lo, hi := c.tauOff[v], c.tauOff[v+1]
		if k, ok := slices.BinarySearch(c.tauTo[lo:hi], u); ok {
			return c.tauVal[int(lo)+k], true
		}
	}
	return 0, false
}

// Influenceability returns the learned infl(u).
func (c *TimeAwareCredit) Influenceability(u graph.NodeID) float64 { return c.infl[u] }

// Equal reports whether c and o hold the same learned parameters, bit for
// bit: the influenceability table and every tau edge with its delay.
func (c *TimeAwareCredit) Equal(o *TimeAwareCredit) bool {
	bitsEqual := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	return bitsEqual(c.infl, o.infl) && slices.Equal(c.tauOff, o.tauOff) &&
		slices.Equal(c.tauTo, o.tauTo) && bitsEqual(c.tauVal, o.tauVal)
}

// UniverseSize returns how many users the learned parameters cover (the
// graph size at learn time). Callers binding restored parameters to a
// graph must ensure every graph node is covered, or Gamma will index out
// of range.
func (c *TimeAwareCredit) UniverseSize() int { return len(c.infl) }

// LearnTimeAware learns the parameters of the time-aware credit rule from
// the training log, exactly as Section 4 prescribes:
//
//   - tau_{v,u}: the average of t(u,a)-t(v,a) over actions a that
//     propagated from v to u;
//   - infl(u): the fraction of u's actions performed under influence,
//     i.e. actions a with some potential influencer v such that
//     t(u,a)-t(v,a) <= tau_{v,u}.
//
// Two passes over the log are required because infl depends on tau. The
// delay sums are kept per graph edge, at its from-major position, so the
// graph's own sorted out-lists give the tau rows their order.
func LearnTimeAware(g *graph.Graph, train *actionlog.Log) *TimeAwareCredit {
	sum := make([]float64, g.NumEdges())
	count := make([]int32, g.NumEdges())
	props := make([]*actionlog.Propagation, train.NumActions())
	for a := 0; a < train.NumActions(); a++ {
		p := actionlog.BuildPropagation(train, g, actionlog.ActionID(a))
		props[a] = p
		for i := range p.Users {
			for _, j := range p.Parents[i] {
				e := g.EdgeIndex(p.Users[j], p.Users[i])
				sum[e] += p.Times[i] - p.Times[j]
				count[e]++
			}
		}
	}
	c := newTimeAware(make([]float64, g.NumNodes()), 0)
	e := 0
	for v := range g.NumNodes() {
		for _, u := range g.Out(graph.NodeID(v)) {
			if count[e] > 0 {
				c.addTau(graph.NodeID(v), u, sum[e]/float64(count[e]))
			}
			e++
		}
	}
	c.sealTau()

	influenced := make([]int, g.NumNodes())
	for _, p := range props {
		for i, u := range p.Users {
			for _, j := range p.Parents[i] {
				tau, _ := c.Tau(p.Users[j], u)
				if dt := p.Times[i] - p.Times[j]; dt <= tau {
					influenced[u]++
					break
				}
			}
		}
	}
	for u := range c.infl {
		if n := train.ActionCount(graph.NodeID(u)); n > 0 {
			c.infl[u] = float64(influenced[u]) / float64(n)
		}
	}
	return c
}
