// Quickstart: synthesize a small social network with propagation traces,
// learn a credit-distribution model, and pick the five most influential
// users.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"credist"
	"credist/internal/datagen"
)

func main() {
	// A small synthetic community: 500 users, 300 observed propagations.
	ds := credist.Generate(datagen.Config{
		Name:                 "quickstart",
		NumUsers:             500,
		OutDegree:            5,
		Reciprocity:          0.6,
		NumActions:           300,
		MeanInfluence:        0.08,
		MeanDelay:            10,
		SpontaneousPerAction: 1,
		Seed:                 42,
	})
	st := ds.Stats()
	fmt.Printf("dataset: %d users, %d propagations, %d action-log tuples\n",
		ds.NumUsers(), st.NumActions, st.NumTuples)

	// Learn the CD model from the traces (time-aware direct credit, the
	// paper's Eq. 9) and select seeds with greedy+CELF.
	model := credist.Learn(ds, credist.Options{Lambda: 0.001})
	res, err := model.NewPlanner().Select(5, nil)
	if err != nil {
		log.Fatal(err)
	}
	seeds, gains := res.Seeds, res.Gains
	if len(seeds) == 0 {
		log.Fatal("no seeds selected")
	}

	fmt.Println("\ntop influencers under the credit-distribution model:")
	total := 0.0
	for i, s := range seeds {
		total += gains[i]
		fmt.Printf("  #%d user %4d  marginal gain %6.2f  influenceability %.2f\n",
			i+1, s, gains[i], model.Influenceability(s))
	}
	fmt.Printf("\npredicted spread of all %d seeds: %.2f users\n", len(seeds), model.Spread(seeds))

	// Contrast with the naive high-degree heuristic.
	hd := credist.HighDegreeSeeds(ds, 5)
	fmt.Printf("high-degree baseline picks %v with predicted spread %.2f\n",
		hd, model.Spread(hd))
}
