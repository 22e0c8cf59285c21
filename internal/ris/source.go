package ris

import (
	"math/rand/v2"

	"credist/internal/cascade"
	"credist/internal/graph"
)

// Source abstracts where RR samples come from, so the collection machinery
// (striped parallel drawing, sorted covers, interval estimates) is shared
// by the cascade live-edge sampler and the CD credit-walk sampler without
// this package importing core. The method set is deliberately structural —
// NewWalker returns a plain func, not a named type — so any package can
// satisfy it without importing ris.
type Source interface {
	// NumNodes returns the node-universe size; every id a walker emits
	// must lie in [0, NumNodes()).
	NumNodes() int
	// Roots returns the scale numerator: EstimateSpread reports
	// Roots() * Pr[S hits a sample]. For the classic live-edge RIS source
	// this is NumNodes() (roots are uniform over all nodes); for the CD
	// credit-walk source it is the number of active users, because only
	// they are sampled as walk roots and only they carry spread mass.
	Roots() int
	// NewWalker returns a fresh sampling closure. Each call must return
	// an independent walker (collection stripes run one walker per
	// stripe, concurrently); a walker itself is used serially. A call
	// draws one sample and returns dst with the sample appended: it must
	// append at least one node and never write dst[:len(dst)], which
	// holds earlier samples of the same arena. The sample must be
	// deterministic given the rng stream — that determinism is what makes
	// striped collections bit-identical at any worker count.
	NewWalker() func(rng *rand.Rand, dst []graph.NodeID) []graph.NodeID
}

// cascadeSource adapts the live-edge Sampler to the Source interface.
type cascadeSource struct {
	w     *cascade.Weights
	model cascade.Model
}

// CascadeSource returns the classic RIS source: reverse-reachable sets
// under the weighted graph's IC or LT live-edge distribution, rooted at a
// uniformly random node.
func CascadeSource(w *cascade.Weights, model cascade.Model) Source {
	return cascadeSource{w: w, model: model}
}

func (s cascadeSource) NumNodes() int { return s.w.Graph().NumNodes() }
func (s cascadeSource) Roots() int    { return s.w.Graph().NumNodes() }

func (s cascadeSource) NewWalker() func(rng *rand.Rand, dst []graph.NodeID) []graph.NodeID {
	return NewSampler(s.w, s.model).Sample
}
