package partition

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"credist/internal/celf"
	"credist/internal/core"
	"credist/internal/graph"
)

// TestObjectivePartitionDeterminism extends the determinism wall to
// non-default objectives: weighted, windowed, budgeted, and blocked
// queries must be bit-identical across partition counts {1, 4} and
// worker counts {1, GOMAXPROCS}, and identical to a selection over a
// probe of the full engine. The same entry points with a nil objective must
// give the engine's default-objective gains.
func TestObjectivePartitionDeterminism(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 84))
	g, log := randomInstance(rng, 70, 45)
	opts := core.Options{Lambda: 0.001}
	full := core.NewEngine(g, log, opts)

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

	// Single-engine references: selections over a probe of the full
	// engine, which the coordinator's probes over partitions must
	// reproduce.
	refEst := core.NewProbeEstimator(obj, full)
	const k = 6
	ref := celf.Run(refEst, k, celf.Options{})
	if len(ref.Seeds) != k {
		t.Fatalf("reference objective selection found %d seeds, want %d", len(ref.Seeds), k)
	}
	allUsers := make([]graph.NodeID, g.NumNodes())
	refGains := make([]float64, g.NumNodes())
	for u := range refGains {
		allUsers[u] = graph.NodeID(u)
		refGains[u] = full.GainObj(graph.NodeID(u), obj)
	}
	rival := ref.Seeds[:2]
	budOpts := func(workers int) celf.Options {
		return celf.Options{Workers: workers, Costs: costs, Budget: 5, Blocked: rival}
	}
	// Two budgeted references: Grow, the plain-greedy path a growable
	// selection takes, and Run, which Select uses and which also weighs
	// the best affordable singleton.
	refBudget := func(run bool) celf.Result {
		eng := core.NewProbeEstimator(obj, full)
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
			name := fmt.Sprintf("parts=%d/workers=%d", nparts, workers)
			coord, err := New(slicePartitions(t, full, nparts), workers)
			if err != nil {
				t.Fatalf("%s: New: %v", name, err)
			}

			res := coord.Select(obj, k, celf.Options{Workers: workers})
			for i := range ref.Seeds {
				if res.Seeds[i] != ref.Seeds[i] || res.Gains[i] != ref.Gains[i] {
					t.Fatalf("%s: objective seed %d: (%d, %b) vs (%d, %b)",
						name, i, res.Seeds[i], res.Gains[i], ref.Seeds[i], ref.Gains[i])
				}
			}

			gains, err := coord.Gains(nil, allUsers, obj, nil)
			if err != nil {
				t.Fatalf("%s: Gains: %v", name, err)
			}
			for u := range gains {
				if gains[u] != refGains[u] {
					t.Fatalf("%s: GainObj(%d) not bit-identical: %b vs %b", name, u, gains[u], refGains[u])
				}
			}

			spread, err := coord.Spread(ref.Seeds, obj, nil)
			if err != nil {
				t.Fatalf("%s: Spread: %v", name, err)
			}
			blockedSpread, err := coord.Spread(ref.Seeds[2:], obj, rival)
			if err != nil {
				t.Fatalf("%s: Spread(blocked): %v", name, err)
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

			sameBudgeted(name+"/grow", celf.NewSelection(coord.estimator(obj, rival), budOpts(workers)).Grow(k), refGrow)
			sameBudgeted(name+"/select", coord.Select(obj, k, budOpts(workers)), refRun)
		}
	}
	// The selection commits the same seeds in the same order the telescoped
	// spread walks, so the two agree exactly.
	if refSpread != ref.Spread() {
		t.Fatalf("telescoped objective spread %b != selection gain sum %b", refSpread, ref.Spread())
	}

	// A nil objective is the default: every gain is bit-for-bit the full
	// engine's Gain.
	coord, err := New(slicePartitions(t, full, 4), 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	gotGains, err := coord.Gains(nil, allUsers, nil, nil)
	if err != nil {
		t.Fatalf("Gains(default): %v", err)
	}
	for u := range gotGains {
		if want := full.Gain(graph.NodeID(u)); gotGains[u] != want {
			t.Fatalf("default Gains(%d) = %b, engine Gain = %b", u, gotGains[u], want)
		}
	}
}
