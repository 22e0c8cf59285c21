package partition

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"credist/internal/actionlog"
	"credist/internal/core"
	"credist/internal/graph"
)

// TestCoordinatorQueriesMatchCloneCommit pins the read-only query path:
// the coordinator's Spread, Gains, SpreadObj and GainsObj answer from a
// core.Probe over the shared partitions, and every value must be
// bit-identical to the clone-and-commit reference — a clone of the full
// engine, each rival then seed committed with Add in input order, and the
// seeds' gains telescoped or the candidates priced with GainObj. The
// matrix covers truncation {0, 0.001, 0.05}, partition counts
// {1, 2, 4, 7} and both row stores; the queries include duplicate ids,
// users with no actions, candidates that are base seeds or rivals, and
// audience and windowed objectives with blocked rivals. The partitions
// must come out of it untouched: no heap growth, no promoted mapped
// bytes, no entries lost.
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
	credit := core.LearnTimeAware(g, log)
	delays := core.BuildActionDelays(log)
	lin := core.DatasetLineage("probe-parity", g, log)

	audience := make([]float64, nUsers)
	for u := range audience {
		audience[u] = float64(rng.IntN(2))
	}
	objectives := []*core.Objective{
		nil,
		{Weights: audience},
		{Windowed: true, Tau: 3, Delays: delays},
		{Weights: audience, Windowed: true, Tau: 5, Delays: delays},
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
		full.Compact()
		for _, nparts := range []int{1, 2, 4, 7} {
			for _, backend := range []string{"heap", "mmap"} {
				name := fmt.Sprintf("lambda=%g/parts=%d/%s", lambda, nparts, backend)
				var parts []*core.Engine
				if backend == "heap" {
					parts = slicePartitions(t, full, nparts)
				} else {
					parts = mmapPartitions(t, full, lin, nparts)
				}
				coord, err := New(parts, 0)
				if err != nil {
					t.Fatalf("%s: New: %v", name, err)
				}
				before := coord.Stats()
				for qi, q := range queries {
					for oi, obj := range objectives {
						checkQuery(t, fmt.Sprintf("%s/q%d/obj%d", name, qi, oi), coord, full, obj, q.blocked, q.seeds, all)
					}
				}
				after := coord.Stats()
				for i := range before {
					if before[i] != after[i] {
						t.Fatalf("%s: partition %d changed by read-only queries: %+v -> %+v", name, i, before[i], after[i])
					}
				}
			}
		}
	}
}

// checkQuery compares one coordinator query against clone-and-commit on
// the full engine.
func checkQuery(t *testing.T, name string, coord *Coordinator, full *core.Engine, obj *core.Objective, blocked, seeds, cands []graph.NodeID) {
	t.Helper()
	ref := full.Clone()
	seen := map[graph.NodeID]bool{}
	for _, r := range blocked {
		if !seen[r] {
			seen[r] = true
			ref.Add(r)
		}
	}
	based := ref.Clone()
	wantSpread := 0.0
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			wantSpread += ref.GainObj(s, obj)
			ref.Add(s)
		}
	}
	for _, s := range seeds {
		based.Add(s)
	}
	wantGains := make([]float64, len(cands))
	for i, x := range cands {
		wantGains[i] = based.GainObj(x, obj)
	}

	var spread float64
	var gains []float64
	var err error
	if obj == nil && blocked == nil {
		if spread, err = coord.Spread(seeds); err != nil {
			t.Fatalf("%s: Spread: %v", name, err)
		}
		if gains, err = coord.Gains(seeds, cands); err != nil {
			t.Fatalf("%s: Gains: %v", name, err)
		}
	} else {
		if spread, err = coord.SpreadObj(seeds, obj, blocked); err != nil {
			t.Fatalf("%s: SpreadObj: %v", name, err)
		}
		if gains, err = coord.GainsObj(seeds, cands, obj, blocked); err != nil {
			t.Fatalf("%s: GainsObj: %v", name, err)
		}
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
