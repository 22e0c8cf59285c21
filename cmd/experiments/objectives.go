package main

import (
	"fmt"
	"io"

	"credist"
	"credist/internal/eval"
)

// objWindow and objBudget are the -window and -budget flag values; only
// the objectives experiment reads them.
var objWindow, objBudget float64

// objectivesDemo contrasts the campaign objectives against the paper's
// global-spread selection on one preset: the same learned model answers
// targeted, time-windowed, budgeted, and rival-blocked campaigns, and
// the table shows how far each scenario's seed set drifts from the
// global one. Every scenario is deterministic — same preset, same
// flags, same table, at any worker or partition count.
func objectivesDemo(out io.Writer, preset string, opts eval.ExpOptions) error {
	ds, err := credist.GeneratePreset(preset)
	if err != nil {
		return err
	}
	model := credist.Learn(ds, credist.Options{Lambda: opts.Lambda})
	k := opts.K
	if k > 10 {
		k = 10 // five selections per preset; keep the experiment brisk
	}

	planner := model.NewPlanner()
	globalSel, err := planner.Select(k, nil)
	if err != nil {
		return err
	}
	globalSeeds := globalSel.Seeds
	global := map[credist.NodeID]bool{}
	for _, s := range globalSeeds {
		global[s] = true
	}

	// Audience: the most influenceable third of the universe — the users
	// a targeted campaign would actually pay for.
	audience := topInfluenceable(model, ds.NumUsers(), ds.NumUsers()/3)

	// Costs: the global selection's top seeds are the expensive
	// celebrities (cost 3), everyone else costs 1.
	costs := make([]float64, ds.NumUsers())
	for i := range costs {
		costs[i] = 1
	}
	for _, s := range globalSeeds {
		costs[s] = 3
	}

	scenarios := []struct {
		name string
		obj  *credist.Objective
	}{
		{"global", nil},
		{"targeted", &credist.Objective{Audience: audience}},
		{"windowed", &credist.Objective{Windowed: true, Window: objWindow}},
		{"budgeted", &credist.Objective{Costs: costs, Budget: objBudget}},
		{"blocked", &credist.Objective{Blocked: globalSeeds[:min(2, len(globalSeeds))]}},
	}

	fmt.Fprintf(out, "Campaign objectives on %s (k=%d, lambda=%g, window=%g, budget=%g)\n",
		ds.Name, k, opts.Lambda, objWindow, objBudget)
	fmt.Fprintf(out, "%-10s %6s %10s %12s %10s\n", "scenario", "seeds", "cost", "sigma_obj", "overlap")
	for _, sc := range scenarios {
		var seeds []credist.NodeID
		if sc.obj == nil {
			seeds = globalSeeds
		} else {
			res, err := planner.Select(k, sc.obj)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", ds.Name, sc.name, err)
			}
			seeds = res.Seeds
		}
		totalCost := float64(len(seeds))
		if sc.obj != nil && sc.obj.Costs != nil {
			totalCost = 0
			for _, s := range seeds {
				totalCost += sc.obj.Costs[s]
			}
		}
		spread, err := scoreObjective(model, seeds, sc.obj)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", ds.Name, sc.name, err)
		}
		overlap := 0
		for _, s := range seeds {
			if global[s] {
				overlap++
			}
		}
		fmt.Fprintf(out, "%-10s %6d %10.1f %12.2f %7d/%d\n",
			sc.name, len(seeds), totalCost, spread, overlap, k)
	}
	return nil
}

// topInfluenceable returns the n users the model rates easiest to
// influence, in id order (a deterministic audience).
func topInfluenceable(model *credist.Model, numUsers, n int) []credist.NodeID {
	type scored struct {
		id    credist.NodeID
		score float64
	}
	all := make([]scored, numUsers)
	for u := 0; u < numUsers; u++ {
		all[u] = scored{credist.NodeID(u), model.Influenceability(credist.NodeID(u))}
	}
	// Selection by nth-element would do; n is small, sort is clearer.
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < numUsers; j++ {
			if all[j].score > all[best].score ||
				(all[j].score == all[best].score && all[j].id < all[best].id) {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
	}
	ids := make([]credist.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = all[i].id
	}
	// Restore id order so the audience reads as a set, not a ranking.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// scoreObjective evaluates a seed set under the objective's evaluation
// half (costs and budget shape selection, not scoring).
func scoreObjective(model *credist.Model, seeds []credist.NodeID, obj *credist.Objective) (float64, error) {
	if obj == nil {
		return model.Spread(seeds), nil
	}
	eval := *obj
	eval.Costs, eval.Budget = nil, 0
	return model.SpreadObj(seeds, &eval)
}
