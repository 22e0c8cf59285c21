package credist_test

import (
	"fmt"

	"credist"
	"credist/internal/datagen"
)

// demoConfig is a tiny deterministic dataset used by the runnable
// documentation examples below.
func demoConfig() datagen.Config {
	return datagen.Config{
		Name: "demo", NumUsers: 200, OutDegree: 4, Reciprocity: 0.6,
		NumActions: 120, MeanInfluence: 0.1, MeanDelay: 8,
		SpontaneousPerAction: 1, Seed: 99,
	}
}

// The basic workflow: synthesize (or load) a dataset, learn the credit
// distribution model from its traces, and select influential seeds.
func ExampleLearn() {
	ds := credist.Generate(demoConfig())
	model := credist.Learn(ds, credist.Options{Lambda: 0.001})
	res, _ := model.NewPlanner().Select(3, nil)
	fmt.Println(len(res.Seeds))
	// Output: 3
}

// Spread prediction needs no simulation: the model evaluates sigma_cd
// directly from the scanned propagation traces.
func ExampleModel_Spread() {
	ds := credist.Generate(demoConfig())
	model := credist.Learn(ds, credist.Options{})
	res, _ := model.NewPlanner().Select(2, nil)
	sum := 0.0
	for _, g := range res.Gains {
		sum += g
	}
	// The exact spread matches the engine's accumulated marginal gains
	// (no truncation configured here).
	fmt.Printf("%.3f\n", model.Spread(res.Seeds)-sum)
	// Output: 0.000
}

// Select runs the paper's seed-selection algorithm (Scan + CELF greedy):
// seeds come back in selection order and, by submodularity, their
// marginal gains never increase.
func ExamplePlanner_Select() {
	ds := credist.Generate(demoConfig())
	model := credist.Learn(ds, credist.Options{Lambda: 0.001})
	res, _ := model.NewPlanner().Select(5, nil)
	seeds, gains := res.Seeds, res.Gains
	nonIncreasing := true
	for i := 1; i < len(gains); i++ {
		if gains[i] > gains[i-1] {
			nonIncreasing = false
		}
	}
	fmt.Println(len(seeds), nonIncreasing)
	// Output: 5 true
}

// A Planner answers every gain, selection and explanation from the
// scanned credit structure and its committed seeds: commit seeds one at a
// time, read marginal gains between commits, and Clone to branch what-if
// explorations without rescanning the log. This is the hook the serving
// layer (internal/serve) builds snapshots on.
func ExampleModel_NewPlanner() {
	ds := credist.Generate(demoConfig())
	model := credist.Learn(ds, credist.Options{})

	planner := model.NewPlanner()
	res, _ := planner.Select(3, nil) // commits to a probe clone only

	branch := planner.Clone()
	branch.Add(res.Seeds[0]) // commits to the clone only
	fmt.Println("clone gain matches Select:", branch.Gain(res.Seeds[1]) == res.Gains[1])
	fmt.Println("original planner untouched:", len(planner.Seeds()))
	// Output:
	// clone gain matches Select: true
	// original planner untouched: 0
}

// The paper's protocol holds out test propagations: split the log
// 80/20 with the size-stratified rule and learn on the training part.
func ExampleDataset_Split() {
	ds := credist.Generate(demoConfig())
	train, test := ds.Split()
	fmt.Println(train.Stats().NumActions, test.Stats().NumActions)
	// Output: 96 24
}

// Initiators extracts the seed set of one propagation: the users who
// performed the action before any of their neighbors.
func ExampleInitiators() {
	ds := credist.Generate(demoConfig())
	inits := credist.Initiators(ds, 0)
	fmt.Println(len(inits) > 0)
	// Output: true
}
