// Viral marketing: the paper's motivating scenario. A movie platform
// (Flixster-like data: users rate movies, ratings propagate along
// friendships) wants to hand out k free passes so that as many users as
// possible end up rating the movie. We compare the budgets' reach when
// seeds are chosen by the data-based CD model versus structural
// heuristics, and show why degree alone misleads.
//
//	go run ./examples/viralmarketing
package main

import (
	"fmt"
	"log"

	"credist"
	"credist/internal/datagen"
)

func main() {
	cfg := datagen.FlixsterSmall()
	cfg.NumUsers = 1500 // keep the demo snappy
	cfg.NumActions = 1200
	ds := credist.Generate(cfg)
	st := ds.Stats()
	fmt.Printf("movie community: %d users, %d rating propagations, %d ratings\n\n",
		ds.NumUsers(), st.NumActions, st.NumTuples)

	// Learn from history; in production you would learn on everything you
	// have. (The spread-prediction example shows the held-out protocol.)
	model := credist.Learn(ds, credist.Options{Lambda: 0.001})

	for _, budget := range []int{5, 10, 25} {
		cdSeeds := selectSeeds(model, budget)
		hdSeeds := credist.HighDegreeSeeds(ds, budget)
		prSeeds := credist.PageRankSeeds(ds, budget)

		fmt.Printf("budget k=%d free passes:\n", budget)
		fmt.Printf("  %-22s reach %8.1f users\n", "credit distribution", model.Spread(cdSeeds))
		fmt.Printf("  %-22s reach %8.1f users\n", "high degree", model.Spread(hdSeeds))
		fmt.Printf("  %-22s reach %8.1f users\n", "pagerank", model.Spread(prSeeds))
		fmt.Printf("  overlap CD∩HighDeg %d/%d, CD∩PageRank %d/%d\n\n",
			overlap(cdSeeds, hdSeeds), budget, overlap(cdSeeds, prSeeds), budget)
	}

	// The paper's Section 6 post-mortem: highly connected users who are
	// rarely active make poor seeds. Show activity of each choice.
	cdSeeds := selectSeeds(model, 5)
	hdSeeds := credist.HighDegreeSeeds(ds, 5)
	fmt.Println("why the heuristics mislead — actions performed per seed:")
	fmt.Printf("  CD seeds:       %v\n", actionCounts(ds, cdSeeds))
	fmt.Printf("  HighDeg seeds:  %v\n", actionCounts(ds, hdSeeds))
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

func actionCounts(ds *credist.Dataset, seeds []credist.NodeID) []int {
	out := make([]int, len(seeds))
	for i, s := range seeds {
		out[i] = ds.Log.ActionCount(s)
	}
	return out
}
