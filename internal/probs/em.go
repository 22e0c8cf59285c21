package probs

import (
	"credist/internal/actionlog"
	"credist/internal/cascade"
	"credist/internal/graph"
)

// EMOptions configures the EM probability learner.
type EMOptions struct {
	// MaxIter bounds EM iterations (default 20).
	MaxIter int
	// Tol stops iteration once the largest per-edge probability change
	// falls below it (default 1e-4).
	Tol float64
}

func (o EMOptions) withDefaults() EMOptions {
	if o.MaxIter == 0 {
		o.MaxIter = 20
	}
	if o.Tol == 0 {
		o.Tol = 1e-4
	}
	return o
}

type emEdge struct {
	succ  int     // |S+|: actions where from acted strictly before to
	cooc  int     // actions both performed (any order)
	denom float64 // |S+| + |S-| = succ + (A_from - cooc)
	p     float64
	num   float64 // E-step accumulator
}

// emCase is one likelihood term: an activation of a user with at least one
// potential influencer in some action's propagation graph.
type emCase struct {
	parents []*emEdge
}

// LearnEMIC learns IC edge probabilities from the training log using the
// EM method of Saito et al. (KES 2008), adapted as the paper describes:
// time is continuous and every neighbor that activated strictly earlier is
// a potential influencer.
//
// For edge (v,u): success cases S+ are actions where v is a potential
// influencer of u; failure cases S- are actions v performed that u never
// performed. The E-step attributes each activation of u fractionally to
// its potential influencers in proportion to their current probabilities;
// the M-step re-estimates p(v,u) as attributed successes over |S+|+|S-|.
func LearnEMIC(g *graph.Graph, train *actionlog.Log, opts EMOptions) *cascade.Weights {
	opts = opts.withDefaults()
	// One accumulator per graph edge, at its from-major position; edges no
	// action exercises keep p = 0 throughout and are never set.
	edges := make([]emEdge, g.NumEdges())
	var cases []emCase

	ix := actionlog.NewUserIndex(g.NumNodes())
	for a := 0; a < train.NumActions(); a++ {
		prop := actionlog.BuildPropagation(train, g, actionlog.ActionID(a))
		ix.Load(prop.Users)
		for i, u := range prop.Users {
			// Record co-occurrence for every in-neighbor that performed a,
			// and successes/cases for those that performed it earlier.
			var caseEdges []*emEdge
			for _, v := range g.In(u) {
				j := ix.Of(v)
				if j < 0 {
					continue
				}
				e := &edges[g.EdgeIndex(v, u)]
				e.cooc++
				if prop.Times[j] < prop.Times[i] {
					e.succ++
					caseEdges = append(caseEdges, e)
				}
			}
			if len(caseEdges) > 0 {
				cases = append(cases, emCase{parents: caseEdges})
			}
		}
	}

	// Denominators and frequency initialization.
	all := g.Edges()
	for k, ed := range all {
		e := &edges[k]
		fail := train.ActionCount(ed.From) - e.cooc
		if fail < 0 {
			fail = 0
		}
		e.denom = float64(e.succ + fail)
		if e.denom > 0 {
			e.p = float64(e.succ) / e.denom
		}
	}

	for iter := 0; iter < opts.MaxIter; iter++ {
		for k := range edges {
			edges[k].num = 0
		}
		for _, c := range cases {
			q := 1.0
			for _, e := range c.parents {
				q *= 1 - e.p
			}
			q = 1 - q // probability u activated under current parameters
			if q <= 0 {
				continue
			}
			for _, e := range c.parents {
				e.num += e.p / q
			}
		}
		maxDelta := 0.0
		for k := range edges {
			e := &edges[k]
			if e.denom == 0 {
				continue
			}
			np := e.num / e.denom
			if np > 1 {
				np = 1
			}
			d := np - e.p
			if d < 0 {
				d = -d
			}
			if d > maxDelta {
				maxDelta = d
			}
			e.p = np
		}
		if maxDelta < opts.Tol {
			break
		}
	}

	w := cascade.NewWeights(g)
	for k, ed := range all {
		if edges[k].p > 0 {
			if err := w.Set(ed.From, ed.To, edges[k].p); err != nil {
				panic(err) // edges come from g by construction
			}
		}
	}
	return w
}
