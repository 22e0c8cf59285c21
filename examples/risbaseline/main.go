// RIS baseline: contrast the paper's data-based CD selection with reverse
// influence sampling (Borgs et al. 2014), the technique that later came to
// dominate model-based influence maximization. Both are fast; the
// interesting question is what each one optimizes. RIS maximizes spread
// under the learned IC model; CD maximizes historically-observed credit.
// When the learned model is wrong (as the paper argues it usually is),
// the two disagree — and each looks best under its own yardstick.
//
//	go run ./examples/risbaseline
package main

import (
	"fmt"
	"log"
	"time"

	"credist"
	"credist/internal/cascade"
	"credist/internal/core"
	"credist/internal/datagen"
	"credist/internal/probs"
	"credist/internal/ris"
)

func main() {
	cfg := datagen.FlixsterSmall()
	cfg.NumUsers = 1500
	cfg.NumActions = 1200
	ds := credist.Generate(cfg)
	fmt.Printf("dataset: %d users, %d propagations\n\n", ds.NumUsers(), ds.Stats().NumActions)

	const k = 15

	// CD: learn credit from traces, select with the engine.
	t0 := time.Now()
	model := credist.Learn(ds, credist.Options{Lambda: 0.001})
	cdSel, err := model.NewPlanner().Select(k, nil)
	if err != nil {
		log.Fatal(err)
	}
	cdSeeds := cdSel.Seeds
	cdTime := time.Since(t0)

	// RIS: learn IC probabilities with EM, sample RR sets, greedy cover.
	t1 := time.Now()
	weights := probs.LearnEMIC(ds.Graph, ds.Log, probs.EMOptions{})
	samples := ris.RecommendedSamples(ds.NumUsers(), k, 0.2)
	col := ris.Collect(ris.NewSampler(weights, cascade.IC), samples, 7)
	risSeeds, _ := col.SelectSeeds(k)
	risTime := time.Since(t1)

	fmt.Printf("CD  selected %d seeds in %v\n", len(cdSeeds), cdTime.Round(time.Millisecond))
	fmt.Printf("RIS selected %d seeds in %v (%d RR samples)\n\n",
		len(risSeeds), risTime.Round(time.Millisecond), samples)

	// Cross-score: each seed set under both objectives.
	cdScorer := core.NewEvaluator(ds.Graph, ds.Log, core.LearnTimeAware(ds.Graph, ds.Log))
	fmt.Printf("%-12s %14s %14s\n", "", "CD spread", "IC-RIS spread")
	fmt.Printf("%-12s %14.1f %14.1f\n", "CD seeds", cdScorer.Spread(cdSeeds, nil), col.EstimateSpread(cdSeeds))
	fmt.Printf("%-12s %14.1f %14.1f\n\n", "RIS seeds", cdScorer.Spread(risSeeds, nil), col.EstimateSpread(risSeeds))

	overlap := 0
	in := make(map[credist.NodeID]bool, k)
	for _, s := range cdSeeds {
		in[s] = true
	}
	for _, s := range risSeeds {
		if in[s] {
			overlap++
		}
	}
	fmt.Printf("seed overlap: %d/%d\n", overlap, k)
	fmt.Println("\nEach algorithm wins under its own objective — the paper's closing")
	fmt.Println("point: comparing influence models needs model-neutral benchmarks.")
}
