// Model comparison: the ablation the paper motivates in Section 4 —
// equal-split direct credit (gamma = 1/d_in) versus the time-aware rule
// of Eq. (9), which decays credit with propagation delay and scales it by
// each user's learned influenceability. We compare the seed sets they
// choose, their agreement, and how the truncation threshold lambda trades
// selection quality for memory.
//
//	go run ./examples/modelcomparison
package main

import (
	"fmt"
	"log"

	"credist"
	"credist/internal/datagen"
)

func main() {
	cfg := datagen.FlixsterSmall()
	cfg.NumUsers = 1500
	cfg.NumActions = 1000
	ds := credist.Generate(cfg)
	fmt.Printf("dataset: %d users, %d propagations\n\n", ds.NumUsers(), ds.Stats().NumActions)

	const k = 20
	timeAware := credist.Learn(ds, credist.Options{Lambda: 0.001})
	simple := credist.Learn(ds, credist.Options{Lambda: 0.001, SimpleCredit: true})

	taSeeds := selectSeeds(timeAware, k)
	simSeeds := selectSeeds(simple, k)

	fmt.Printf("time-aware credit seeds: %v\n", taSeeds[:10])
	fmt.Printf("simple credit seeds:     %v\n", simSeeds[:10])
	fmt.Printf("overlap: %d/%d\n\n", overlap(taSeeds, simSeeds), k)

	// Cross-score: each model rates the other's selection. The time-aware
	// model is the closer match to how influence actually decays in the
	// generator, so its seeds should hold up better under scrutiny.
	fmt.Println("cross-scored predicted spreads:")
	fmt.Printf("  %-18s %12s %12s\n", "", "TA scorer", "simple scorer")
	fmt.Printf("  %-18s %12.1f %12.1f\n", "TA seeds", timeAware.Spread(taSeeds), simple.Spread(taSeeds))
	fmt.Printf("  %-18s %12.1f %12.1f\n\n", "simple seeds", timeAware.Spread(simSeeds), simple.Spread(simSeeds))

	// Truncation sweep (Table 4 flavor): coarser lambda means fewer UC
	// entries and faster selection, at some cost in seed quality.
	fmt.Println("truncation threshold sweep (k=20, time-aware credit):")
	ref := selectSeeds(credist.Learn(ds, credist.Options{Lambda: 0.0001}), k)
	for _, lambda := range []float64{0.1, 0.01, 0.001, 0.0001} {
		m := credist.Learn(ds, credist.Options{Lambda: lambda})
		seeds := selectSeeds(m, k)
		fmt.Printf("  lambda %-7g spread %8.1f   true seeds recovered %2d/%d\n",
			lambda, timeAware.Spread(seeds), overlap(seeds, ref), k)
	}
}

// selectSeeds picks k seeds with the paper's algorithm (Scan + greedy with
// CELF) on a fresh planner over the model.
func selectSeeds(m *credist.Model, k int) []credist.NodeID {
	res, err := m.NewPlanner().Select(k, nil)
	if err != nil {
		log.Fatal(err)
	}
	return res.Seeds
}

func overlap(a, b []credist.NodeID) int {
	in := make(map[credist.NodeID]bool, len(a))
	for _, u := range a {
		in[u] = true
	}
	n := 0
	for _, u := range b {
		if in[u] {
			n++
		}
	}
	return n
}
