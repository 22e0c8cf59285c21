package eval

import (
	"math/rand/v2"

	"credist/internal/cascade"
	"credist/internal/core"
	"credist/internal/graph"
	"credist/internal/probs"
)

// Predictor estimates the expected spread of a seed set. Each method of
// Section 3 / Section 6 is one Predictor.
type Predictor struct {
	Name    string
	Predict func(seeds []graph.NodeID) float64
}

// MCTrials is the default simulation count for Monte-Carlo predictors;
// the paper uses 10,000, we default lower for laptop-scale runs (see
// DESIGN.md §4). Override per-call via Methods options.
const MCTrials = 1000

// perturbNoise is the PT method's relative noise bound.
const perturbNoise = 0.20

// MethodOptions configures predictor construction.
type MethodOptions struct {
	// Trials overrides the Monte-Carlo simulation count (default MCTrials).
	Trials int
	// Seed drives all randomized assignments and simulations.
	Seed uint64
}

func (o MethodOptions) withDefaults() MethodOptions {
	if o.Trials == 0 {
		o.Trials = MCTrials
	}
	return o
}

// ICPredictor wraps Monte-Carlo IC estimation over the given weights.
func ICPredictor(name string, w *cascade.Weights, opts MethodOptions) Predictor {
	opts = opts.withDefaults()
	mc := cascade.NewMCEstimator(w, cascade.IC, cascade.MCOptions{Trials: opts.Trials, Seed: opts.Seed})
	return Predictor{Name: name, Predict: mc.Spread}
}

// LTPredictor wraps Monte-Carlo LT estimation over the given weights.
func LTPredictor(name string, w *cascade.Weights, opts MethodOptions) Predictor {
	opts = opts.withDefaults()
	mc := cascade.NewMCEstimator(w, cascade.LT, cascade.MCOptions{Trials: opts.Trials, Seed: opts.Seed})
	return Predictor{Name: name, Predict: mc.Spread}
}

// CDPredictor wraps the credit-distribution evaluator.
func CDPredictor(ev *core.Evaluator) Predictor {
	return Predictor{Name: "CD", Predict: func(seeds []graph.NodeID) float64 { return ev.Spread(seeds, nil) }}
}

// Section3Weights builds the five IC edge-probability assignments compared
// in Section 3: UN, TV, WC, EM, and PT (EM perturbed).
func Section3Weights(env *Env, opts MethodOptions) map[string]*cascade.Weights {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewPCG(opts.Seed, 0x5ec7104))
	em := probs.LearnEMIC(env.Graph, env.Train, probs.EMOptions{})
	return map[string]*cascade.Weights{
		"UN": probs.Uniform(env.Graph, 0.01),
		"TV": probs.Trivalency(env.Graph, rng),
		"WC": probs.WeightedCascade(env.Graph),
		"EM": em,
		"PT": probs.Perturb(em, perturbNoise, rng),
	}
}

// Section3Predictors builds the five Section-3 predictors (all under the
// IC model, differing only in edge probabilities).
func Section3Predictors(env *Env, opts MethodOptions) []Predictor {
	weights := Section3Weights(env, opts)
	order := []string{"UN", "TV", "WC", "EM", "PT"}
	out := make([]Predictor, 0, len(order))
	for _, name := range order {
		out = append(out, ICPredictor(name, weights[name], opts))
	}
	return out
}

// Section6Predictors builds the three learned-model predictors compared in
// Section 6: IC with EM-learned probabilities, LT with frequency-learned
// weights, and CD with time-aware credit.
func Section6Predictors(env *Env, opts MethodOptions) []Predictor {
	opts = opts.withDefaults()
	icW := probs.LearnEMIC(env.Graph, env.Train, probs.EMOptions{})
	ltW := probs.LearnLTWeights(env.Graph, env.Train)
	credit := core.LearnTimeAware(env.Graph, env.Train)
	ev := core.NewEvaluator(env.Graph, env.Train, credit)
	return []Predictor{
		ICPredictor("IC", icW, opts),
		LTPredictor("LT", ltW, opts),
		CDPredictor(ev),
	}
}
