package partition_test

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"credist"
	"credist/internal/celf"
	"credist/internal/core"
	"credist/internal/graph"
)

// TestObjectivePartitionDeterminism extends the determinism wall to
// non-default objectives: weighted, windowed, budgeted, and blocked
// queries on the partitioned planner must be bit-identical across
// partition counts {1, 4} and worker counts {1, GOMAXPROCS}, and identical
// to a selection over a probe of the full engine. The growable selection
// the facade runs only for the default objective is pinned the same way
// over a core.Probe of the partitions. The same entry points with a nil
// objective must give the engine's default-objective gains.
func TestObjectivePartitionDeterminism(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 84))
	g, log := randomInstance(rng, 70, 45)
	opts := core.Options{Lambda: 0.001}
	full := core.NewEngine(g, log, opts)
	m := credist.Learn(&credist.Dataset{Name: "objective-wall", Graph: g, Log: log}, credist.Options{Lambda: 0.001, SimpleCredit: true})

	weights := make([]float64, g.NumNodes())
	for u := range weights {
		switch rng.IntN(3) {
		case 0:
			weights[u] = 0
		case 1:
			weights[u] = 1
		default:
			weights[u] = rng.Float64() * 2
		}
	}
	obj := &core.Objective{
		Weights:  weights,
		Windowed: true,
		Tau:      4, // log times are drawn from {0..7}
		Delays:   core.BuildActionDelays(log),
	}
	costs := make([]float64, g.NumNodes())
	for u := range costs {
		costs[u] = 0.5 + rng.Float64()*2
	}
	// The same objective at the facade: the model derives the delay index
	// from the same log.
	fobj := func(blocked []graph.NodeID, costs []float64, budget float64) *credist.Objective {
		return &credist.Objective{Weights: weights, Windowed: true, Window: 4, Blocked: blocked, Costs: costs, Budget: budget}
	}

	// Single-engine references: selections over a probe of the full
	// engine, which the partitioned planner must reproduce.
	refEst := core.NewProbe(full).Estimator(obj)
	const k = 6
	ref := celf.Run(refEst, k, celf.Options{})
	if len(ref.Seeds) != k {
		t.Fatalf("reference objective selection found %d seeds, want %d", len(ref.Seeds), k)
	}
	allUsers := make([]graph.NodeID, g.NumNodes())
	refGains := make([]float64, g.NumNodes())
	for u := range refGains {
		allUsers[u] = graph.NodeID(u)
		refGains[u] = core.NewProbe(full).Gain(graph.NodeID(u), obj)
	}
	rival := ref.Seeds[:2]
	budOpts := func(workers int) celf.Options {
		return celf.Options{Workers: workers, Costs: costs, Budget: 5, Blocked: rival}
	}
	// Two budgeted references: Grow, the plain-greedy path a growable
	// selection takes, and Run, which Select uses and which also weighs
	// the best affordable singleton.
	refBudget := func(run bool) celf.Result {
		eng := core.NewProbe(full).Estimator(obj)
		for _, r := range rival {
			eng.Add(r)
		}
		if run {
			return celf.Run(eng, k, budOpts(1))
		}
		return celf.NewSelection(eng, budOpts(1)).Grow(k)
	}
	refGrow, refRun := refBudget(false), refBudget(true)
	sameBudgeted := func(name string, bud, want celf.Result) {
		t.Helper()
		for i := range want.Seeds {
			if i >= len(bud.Seeds) || bud.Seeds[i] != want.Seeds[i] || bud.Gains[i] != want.Gains[i] {
				t.Fatalf("%s: budgeted blocked selection diverged at %d: %v vs %v",
					name, i, bud.Seeds, want.Seeds)
			}
		}
		if len(bud.Seeds) != len(want.Seeds) {
			t.Fatalf("%s: budgeted selection picked %d seeds, reference %d", name, len(bud.Seeds), len(want.Seeds))
		}
	}

	var refSpread, refBlockedSpread float64
	var have bool
	for _, nparts := range []int{1, 4} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			setProcs(t, workers)
			name := fmt.Sprintf("parts=%d/workers=%d", nparts, workers)
			pp, err := m.NewPlanner().Partition(nparts)
			if err != nil {
				t.Fatalf("%s: Partition: %v", name, err)
			}

			res, err := pp.Select(k, fobj(nil, nil, 0))
			if err != nil {
				t.Fatalf("%s: Select: %v", name, err)
			}
			for i := range ref.Seeds {
				if res.Seeds[i] != ref.Seeds[i] || res.Gains[i] != ref.Gains[i] {
					t.Fatalf("%s: objective seed %d: (%d, %b) vs (%d, %b)",
						name, i, res.Seeds[i], res.Gains[i], ref.Seeds[i], ref.Gains[i])
				}
			}

			gains, err := pp.GainsObj(nil, allUsers, fobj(nil, nil, 0))
			if err != nil {
				t.Fatalf("%s: GainsObj: %v", name, err)
			}
			for u := range gains {
				if gains[u] != refGains[u] {
					t.Fatalf("%s: GainObj(%d) not bit-identical: %b vs %b", name, u, gains[u], refGains[u])
				}
			}

			spread, err := pp.SpreadObj(ref.Seeds, fobj(nil, nil, 0))
			if err != nil {
				t.Fatalf("%s: SpreadObj: %v", name, err)
			}
			blockedSpread, err := pp.SpreadObj(ref.Seeds[2:], fobj(rival, nil, 0))
			if err != nil {
				t.Fatalf("%s: SpreadObj(blocked): %v", name, err)
			}
			if !have {
				refSpread, refBlockedSpread, have = spread, blockedSpread, true
			} else {
				if spread != refSpread {
					t.Fatalf("%s: Spread not bit-identical across configs: %b vs %b", name, spread, refSpread)
				}
				if blockedSpread != refBlockedSpread {
					t.Fatalf("%s: blocked Spread not bit-identical: %b vs %b", name, blockedSpread, refBlockedSpread)
				}
			}

			est := core.NewProbe(slicePartitions(t, full, nparts)...).Estimator(obj)
			for _, r := range rival {
				est.Add(r)
			}
			sameBudgeted(name+"/grow", celf.NewSelection(est, budOpts(workers)).Grow(k), refGrow)
			budgeted, err := pp.Select(k, fobj(rival, costs, 5))
			if err != nil {
				t.Fatalf("%s: budgeted Select: %v", name, err)
			}
			sameBudgeted(name+"/select", budgeted, refRun)
		}
	}
	// The selection commits the same seeds in the same order the telescoped
	// spread walks, so the two agree exactly.
	if refSpread != ref.Spread() {
		t.Fatalf("telescoped objective spread %b != selection gain sum %b", refSpread, ref.Spread())
	}

	// A nil objective is the default: every gain is bit-for-bit the full
	// engine's Gain.
	pp, err := m.NewPlanner().Partition(4)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	gotGains, err := pp.GainsObj(nil, allUsers, nil)
	if err != nil {
		t.Fatalf("GainsObj(default): %v", err)
	}
	for u := range gotGains {
		if want := core.NewProbe(full).Gain(graph.NodeID(u), nil); gotGains[u] != want {
			t.Fatalf("default Gains(%d) = %b, engine Gain = %b", u, gotGains[u], want)
		}
	}
}
