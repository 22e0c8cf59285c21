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
// worker counts {1, GOMAXPROCS}, and identical to a clone+Add selection
// on the full engine. Default-objective calls through the Obj entry
// points must route to the exact pre-objective paths.
func TestObjectivePartitionDeterminism(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 84))
	g, log := randomInstance(rng, 70, 45)
	opts := core.Options{Lambda: 0.001}
	full := core.NewEngine(g, log, opts)
	full.Compact()

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

	// Single-engine references: clone+Add selections over the full engine,
	// the oracle the coordinator's probe selections must reproduce.
	refEst := commitEstimator{Engine: full.Clone(), obj: obj}
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
	refBudget := func() celf.Result {
		eng := commitEstimator{Engine: full.Clone(), obj: obj}
		for _, r := range rival {
			eng.Add(r)
		}
		// Grow, not Run: NewSelectionObj hands the caller a growable
		// selection, so the reference takes the same plain-greedy path.
		return celf.NewSelection(eng, budOpts(1)).Grow(k)
	}()

	var refSpread, refBlockedSpread float64
	var have bool
	for _, nparts := range []int{1, 4} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			name := fmt.Sprintf("parts=%d/workers=%d", nparts, workers)
			coord, err := New(slicePartitions(t, full, nparts), workers)
			if err != nil {
				t.Fatalf("%s: New: %v", name, err)
			}

			res := coord.NewSelectionObj(obj, celf.Options{Workers: workers}).Grow(k)
			for i := range ref.Seeds {
				if res.Seeds[i] != ref.Seeds[i] || res.Gains[i] != ref.Gains[i] {
					t.Fatalf("%s: objective seed %d: (%d, %b) vs (%d, %b)",
						name, i, res.Seeds[i], res.Gains[i], ref.Seeds[i], ref.Gains[i])
				}
			}

			gains, err := coord.GainsObj(nil, allUsers, obj, nil)
			if err != nil {
				t.Fatalf("%s: GainsObj: %v", name, err)
			}
			for u := range gains {
				if gains[u] != refGains[u] {
					t.Fatalf("%s: GainObj(%d) not bit-identical: %b vs %b", name, u, gains[u], refGains[u])
				}
			}

			spread, err := coord.SpreadObj(ref.Seeds, obj, nil)
			if err != nil {
				t.Fatalf("%s: SpreadObj: %v", name, err)
			}
			blockedSpread, err := coord.SpreadObj(ref.Seeds[2:], obj, rival)
			if err != nil {
				t.Fatalf("%s: SpreadObj(blocked): %v", name, err)
			}
			if !have {
				refSpread, refBlockedSpread, have = spread, blockedSpread, true
			} else {
				if spread != refSpread {
					t.Fatalf("%s: SpreadObj not bit-identical across configs: %b vs %b", name, spread, refSpread)
				}
				if blockedSpread != refBlockedSpread {
					t.Fatalf("%s: blocked SpreadObj not bit-identical: %b vs %b", name, blockedSpread, refBlockedSpread)
				}
			}

			bud := coord.NewSelectionObj(obj, budOpts(workers)).Grow(k)
			for i := range refBudget.Seeds {
				if i >= len(bud.Seeds) || bud.Seeds[i] != refBudget.Seeds[i] || bud.Gains[i] != refBudget.Gains[i] {
					t.Fatalf("%s: budgeted blocked selection diverged at %d: %v vs %v",
						name, i, bud.Seeds, refBudget.Seeds)
				}
			}
			if len(bud.Seeds) != len(refBudget.Seeds) {
				t.Fatalf("%s: budgeted selection picked %d seeds, reference %d", name, len(bud.Seeds), len(refBudget.Seeds))
			}
		}
	}
	// The selection commits the same seeds in the same order the telescoped
	// spread walks, so the two agree exactly.
	if refSpread != ref.Spread() {
		t.Fatalf("telescoped objective spread %b != selection gain sum %b", refSpread, ref.Spread())
	}

	// The Obj entry points with the default objective are the pre-objective
	// paths: bit-identical gains and spread.
	coord, err := New(slicePartitions(t, full, 4), 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	wantGains, err := coord.Gains(nil, allUsers)
	if err != nil {
		t.Fatalf("Gains: %v", err)
	}
	gotGains, err := coord.GainsObj(nil, allUsers, nil, nil)
	if err != nil {
		t.Fatalf("GainsObj(default): %v", err)
	}
	for u := range wantGains {
		if wantGains[u] != gotGains[u] {
			t.Fatalf("default GainsObj(%d) = %b, Gains = %b", u, gotGains[u], wantGains[u])
		}
	}
	wantSpread, err := coord.Spread(ref.Seeds)
	if err != nil {
		t.Fatalf("Spread: %v", err)
	}
	gotSpread, err := coord.SpreadObj(ref.Seeds, nil, nil)
	if err != nil {
		t.Fatalf("SpreadObj(default): %v", err)
	}
	if wantSpread != gotSpread {
		t.Fatalf("default SpreadObj = %b, Spread = %b", gotSpread, wantSpread)
	}
}

// commitEstimator is the clone+Add selection oracle: gains priced under
// obj on an engine that every seed is Added to.
type commitEstimator struct {
	*core.Engine
	obj *core.Objective
}

func (e commitEstimator) Gain(x graph.NodeID) float64 { return e.Engine.GainObj(x, e.obj) }
