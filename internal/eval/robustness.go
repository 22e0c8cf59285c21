package eval

import (
	"fmt"
	"io"
	"math/rand/v2"

	"credist/internal/core"
	"credist/internal/graph"
	"credist/internal/heuristic"
	"credist/internal/probs"
	"credist/internal/seedsel"
)

// NoisePoint is one row of the noise-robustness sweep: how much the seed
// set and its quality change when the learned probabilities are perturbed
// by +/- Noise relative error before selection.
type NoisePoint struct {
	Noise      float64
	Overlap    int     // |seeds(EM) ∩ seeds(perturbed)|
	SpreadLoss float64 // 1 - spread(perturbed seeds)/spread(EM seeds)
}

// NoiseRobustness extends the paper's PT experiment (Section 3, and
// side-contribution (3) of the conclusions) from a single 20% noise level
// to a sweep: perturb the EM-learned probabilities at increasing noise,
// re-select seeds, and measure how far selection quality degrades. The
// paper's claim is that greedy selection is robust to moderate learning
// error; the sweep shows where that stops holding.
func NoiseRobustness(w io.Writer, env *Env, noises []float64, opts ExpOptions) []NoisePoint {
	opts = opts.withDefaults()
	if len(noises) == 0 {
		noises = []float64{0.05, 0.1, 0.2, 0.4, 0.8}
	}
	em := probs.LearnEMIC(env.Graph, env.Train, probs.EMOptions{})
	base := seedsel.CELF(heuristic.NewPMIA(em, heuristic.DefaultTheta), opts.K)

	// Score seed sets with the CD evaluator, the paper's best proxy for
	// actual spread.
	credit := core.LearnTimeAware(env.Graph, env.Train)
	scorer := core.NewEvaluator(env.Graph, env.Train, credit)
	baseSpread := scorer.Spread(base.Seeds, nil)

	rng := rand.New(rand.NewPCG(opts.Seed, 0xfade))
	var points []NoisePoint
	for _, noise := range noises {
		pt := probs.Perturb(em, noise, rng)
		res := seedsel.CELF(heuristic.NewPMIA(pt, heuristic.DefaultTheta), opts.K)
		loss := 0.0
		if baseSpread > 0 {
			loss = 1 - scorer.Spread(res.Seeds, nil)/baseSpread
		}
		points = append(points, NoisePoint{
			Noise:      noise,
			Overlap:    Overlap(base.Seeds, res.Seeds),
			SpreadLoss: loss,
		})
	}

	fmt.Fprintf(w, "Noise robustness of greedy selection on %s (k=%d):\n", env.Name, opts.K)
	fmt.Fprintf(w, "%8s %10s %12s\n", "noise", "overlap", "spread loss")
	for _, p := range points {
		fmt.Fprintf(w, "%7.0f%% %7d/%2d %11.1f%%\n", p.Noise*100, p.Overlap, opts.K, p.SpreadLoss*100)
	}
	return points
}

// MethodSpreadPoint scores one probability-learning method by the CD
// spread of the seeds selected under it.
type MethodSpreadPoint struct {
	Method string
	Spread float64
}

// LearnerComparison is an extension experiment: select seeds under every
// trace-based probability learner the repository implements (EM of Saito
// et al., plus the Bernoulli / Jaccard / Partial-Credits static models of
// Goyal et al. WSDM 2010) and compare the CD-scored spread of their seed
// sets against the CD model's own selection.
func LearnerComparison(w io.Writer, env *Env, opts ExpOptions) []MethodSpreadPoint {
	opts = opts.withDefaults()
	credit := core.LearnTimeAware(env.Graph, env.Train)
	scorer := core.NewEvaluator(env.Graph, env.Train, credit)

	weights := map[string]func() []graph.NodeID{
		"EM": func() []graph.NodeID {
			w := probs.LearnEMIC(env.Graph, env.Train, probs.EMOptions{})
			return seedsel.CELF(heuristic.NewPMIA(w, heuristic.DefaultTheta), opts.K).Seeds
		},
		"Bernoulli": func() []graph.NodeID {
			w := probs.LearnGoyal(env.Graph, env.Train, probs.Bernoulli)
			return seedsel.CELF(heuristic.NewPMIA(w, heuristic.DefaultTheta), opts.K).Seeds
		},
		"Jaccard": func() []graph.NodeID {
			w := probs.LearnGoyal(env.Graph, env.Train, probs.Jaccard)
			return seedsel.CELF(heuristic.NewPMIA(w, heuristic.DefaultTheta), opts.K).Seeds
		},
		"PartialCredits": func() []graph.NodeID {
			w := probs.LearnGoyal(env.Graph, env.Train, probs.PartialCredits)
			return seedsel.CELF(heuristic.NewPMIA(w, heuristic.DefaultTheta), opts.K).Seeds
		},
		"CD": func() []graph.NodeID {
			return SelectCD(env, opts).Seeds
		},
	}
	order := []string{"CD", "EM", "Bernoulli", "Jaccard", "PartialCredits"}
	var points []MethodSpreadPoint
	for _, name := range order {
		seeds := weights[name]()
		points = append(points, MethodSpreadPoint{Method: name, Spread: scorer.Spread(seeds, nil)})
	}

	fmt.Fprintf(w, "Trace-based learners on %s (k=%d, CD-scored spread):\n", env.Name, opts.K)
	for _, p := range points {
		fmt.Fprintf(w, "%16s %10.1f\n", p.Method, p.Spread)
	}
	return points
}
