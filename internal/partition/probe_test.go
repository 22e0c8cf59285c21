package partition_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"credist"
	"credist/internal/actionlog"
	"credist/internal/core"
	"credist/internal/graph"
)

// TestCoordinatorQueriesMatchCloneCommit pins the read-only query path:
// the partitioned planner's SpreadObj and GainsObjOn answer from a
// core.Probe over the shared partitions, and every value must be
// bit-identical to the clone-and-commit reference — a probe of the full
// engine, each rival then seed committed in input order, cloned before
// the seeds for the candidate gains, and the seeds' gains telescoped. The
// matrix covers truncation {0, 0.001, 0.05}, partition counts
// {1, 2, 4, 7} and both row stores; the queries include duplicate ids,
// users with no actions, candidates that are base seeds or rivals, and
// audience and windowed objectives with blocked rivals. The partitions
// must come out of it untouched: no heap growth, no mapped bytes moved,
// no entries lost.
func TestCoordinatorQueriesMatchCloneCommit(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 1))
	const nUsers, active, nActions = 36, 33, 24
	g, _ := randomInstance(rng, nUsers, 1)
	lb := actionlog.NewBuilder(nUsers)
	for a := 0; a < nActions; a++ {
		perm := rng.Perm(active) // users [active, nUsers) never act
		for _, u := range perm[:2+rng.IntN(active-1)] {
			_ = lb.Add(graph.NodeID(u), actionlog.ActionID(a), float64(rng.IntN(8)))
		}
	}
	log := lb.Build()
	ds := &credist.Dataset{Name: "probe-parity", Graph: g, Log: log}
	credit := core.LearnTimeAware(g, log)
	delays := core.BuildActionDelays(log)

	audience := make([]float64, nUsers)
	for u := range audience {
		audience[u] = float64(rng.IntN(2))
	}
	// Each objective at the core, and the same one at the facade (the
	// model derives the delay index from the same log).
	objectives := []struct {
		core   *core.Objective
		facade credist.Objective
	}{
		{nil, credist.Objective{}},
		{&core.Objective{Weights: audience}, credist.Objective{Weights: audience}},
		{&core.Objective{Windowed: true, Tau: 3, Delays: delays}, credist.Objective{Windowed: true, Window: 3}},
		{&core.Objective{Weights: audience, Windowed: true, Tau: 5, Delays: delays}, credist.Objective{Weights: audience, Windowed: true, Window: 5}},
	}
	all := make([]graph.NodeID, nUsers)
	for u := range all {
		all[u] = graph.NodeID(u)
	}
	pick := func(n int) []graph.NodeID {
		out := make([]graph.NodeID, n)
		for i := range out {
			out[i] = graph.NodeID(rng.IntN(nUsers))
		}
		return out
	}
	type query struct{ blocked, seeds []graph.NodeID }
	queries := []query{
		{nil, nil},
		{nil, []graph.NodeID{3, 3, nUsers - 1, 7}}, // duplicate, inactive
		{[]graph.NodeID{7, nUsers - 2}, []graph.NodeID{7, 1, 2}},
	}
	for i := 0; i < 5; i++ {
		queries = append(queries, query{pick(rng.IntN(3)), pick(1 + rng.IntN(6))})
	}

	for _, lambda := range []float64{0, 0.001, 0.05} {
		full := core.NewEngine(g, log, core.Options{Lambda: lambda, Credit: credit})
		m := credist.Learn(ds, credist.Options{Lambda: lambda})
		for _, nparts := range []int{1, 2, 4, 7} {
			for _, backend := range []string{"sliced", "mmap"} {
				name := fmt.Sprintf("lambda=%g/parts=%d/%s", lambda, nparts, backend)
				pm, pp := plannerFor(t, m, nparts, backend)
				before := pp.Stats()
				for qi, q := range queries {
					for oi, obj := range objectives {
						fo := obj.facade
						fo.Blocked = q.blocked
						checkQuery(t, fmt.Sprintf("%s/q%d/obj%d", name, qi, oi), pm, pp, &fo, full, obj.core, q.blocked, q.seeds, all)
					}
				}
				after := pp.Stats()
				for i := range before {
					if before[i] != after[i] {
						t.Fatalf("%s: partition %d changed by read-only queries: %+v -> %+v", name, i, before[i], after[i])
					}
				}
			}
		}
	}
}

// checkQuery compares one planner query under fo against clone-and-commit
// on a probe of the full engine under obj, the same objective.
func checkQuery(t *testing.T, name string, m *credist.Model, pp *credist.Planner, fo *credist.Objective, full *core.Engine, obj *core.Objective, blocked, seeds, cands []graph.NodeID) {
	t.Helper()
	ref := core.NewProbe(full)
	seen := map[graph.NodeID]bool{}
	for _, r := range blocked {
		if !seen[r] {
			seen[r] = true
			ref.Commit(r, nil)
		}
	}
	based := ref.Clone()
	wantSpread := 0.0
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			wantSpread += ref.Gain(s, obj)
			ref.Commit(s, nil)
		}
	}
	for _, s := range seeds {
		based.Commit(s, nil)
	}
	wantGains := make([]float64, len(cands))
	for i, x := range cands {
		wantGains[i] = based.Gain(x, obj)
	}

	spread, err := pp.SpreadObj(m, seeds, fo)
	if err != nil {
		t.Fatalf("%s: SpreadObj: %v", name, err)
	}
	gains, err := m.GainsObjOn(pp, seeds, cands, fo)
	if err != nil {
		t.Fatalf("%s: GainsObjOn: %v", name, err)
	}
	if spread != wantSpread {
		t.Fatalf("%s: spread of %v (blocked %v) = %b, clone+commit gives %b", name, seeds, blocked, spread, wantSpread)
	}
	for i, x := range cands {
		if gains[i] != wantGains[i] {
			t.Fatalf("%s: gain of %d over %v (blocked %v) = %b, clone+commit gives %b", name, x, seeds, blocked, gains[i], wantGains[i])
		}
	}
}
