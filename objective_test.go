package credist

import (
	"math"
	"strings"
	"testing"
)

// objTestModel is a small learned model plus a split of its users into a
// target audience and a rival seed set, shared by the facade objective
// tests.
func objTestModel(t *testing.T) (*Model, *Objective) {
	t.Helper()
	ds := Generate(tinyConfig(11))
	m := Learn(ds, Options{Lambda: 0.001})
	audience := make([]NodeID, 0, ds.NumUsers()/3)
	for u := 0; u < ds.NumUsers(); u += 3 {
		audience = append(audience, NodeID(u))
	}
	return m, &Objective{Audience: audience, Windowed: true, Window: 12}
}

// TestObjectiveFacadeDefaultBitIdentical pins the facade brick of the
// determinism wall: the Obj entry points under a nil (and zero)
// objective are the pre-objective entry points, bit for bit.
func TestObjectiveFacadeDefaultBitIdentical(t *testing.T) {
	ds := Generate(tinyConfig(12))
	m := Learn(ds, Options{Lambda: 0.001})
	seeds, _ := selectSeeds(m, 5)
	candidates := make([]NodeID, 40)
	for i := range candidates {
		candidates[i] = NodeID(i * 7)
	}
	for _, o := range []*Objective{nil, {}} {
		spread, err := m.SpreadObj(seeds, o)
		if err != nil {
			t.Fatalf("SpreadObj: %v", err)
		}
		if want := m.Spread(seeds); spread != want {
			t.Fatalf("default SpreadObj = %b, Spread = %b", spread, want)
		}
		gains, err := m.NewPlanner().GainsObj(seeds[:2], candidates, o)
		if err != nil {
			t.Fatalf("GainsObj: %v", err)
		}
		want := mustGains(t, m.NewPlanner(), seeds[:2], candidates)
		for i := range gains {
			if gains[i] != want[i] {
				t.Fatalf("default GainsObj[%d] = %b, Gains = %b", i, gains[i], want[i])
			}
		}
		res, err := m.NewPlanner().Select(5, o)
		if err != nil {
			t.Fatalf("SelectSeedsObj: %v", err)
		}
		ref := m.Selection(5)
		for i := range ref.Seeds {
			if res.Seeds[i] != ref.Seeds[i] || res.Gains[i] != ref.Gains[i] {
				t.Fatalf("default SelectSeedsObj seed %d: (%d, %b) vs (%d, %b)",
					i, res.Seeds[i], res.Gains[i], ref.Seeds[i], ref.Gains[i])
			}
		}
	}
}

// TestObjectiveFacadePartitionedParity pins that a targeted, windowed,
// blocked objective answers bit-identically whether served by the single
// engine or by partitions at counts {1, 4} — gains and seeds
// exactly, the two spread paths (per-action evaluator vs telescoped
// gains) to within arithmetic reassociation.
func TestObjectiveFacadePartitionedParity(t *testing.T) {
	m, obj := objTestModel(t)
	res, err := m.NewPlanner().Select(6, obj)
	if err != nil {
		t.Fatalf("SelectSeedsObj: %v", err)
	}
	if len(res.Seeds) != 6 {
		t.Fatalf("objective selection found %d seeds", len(res.Seeds))
	}
	obj.Blocked = res.Seeds[:2]
	wantSel, err := m.NewPlanner().Select(4, obj)
	if err != nil {
		t.Fatalf("SelectSeedsObj(blocked): %v", err)
	}
	candidates := make([]NodeID, 50)
	for i := range candidates {
		candidates[i] = NodeID(i * 5)
	}
	wantGains, err := m.NewPlanner().GainsObj(nil, candidates, obj)
	if err != nil {
		t.Fatalf("GainsObj: %v", err)
	}
	wantSpread, err := m.SpreadObj(res.Seeds[2:], obj)
	if err != nil {
		t.Fatalf("SpreadObj: %v", err)
	}

	var teleSpread float64
	var haveTele bool
	for _, nparts := range []int{1, 4} {
		pp, err := m.NewPlanner().Partition(nparts)
		if err != nil {
			t.Fatalf("Partition(%d): %v", nparts, err)
		}
		sel, err := pp.Select(4, obj)
		if err != nil {
			t.Fatalf("nparts=%d: SelectSeedsObj: %v", nparts, err)
		}
		for i := range wantSel.Seeds {
			if sel.Seeds[i] != wantSel.Seeds[i] || sel.Gains[i] != wantSel.Gains[i] {
				t.Fatalf("nparts=%d: objective seed %d: (%d, %b) vs (%d, %b)",
					nparts, i, sel.Seeds[i], sel.Gains[i], wantSel.Seeds[i], wantSel.Gains[i])
			}
		}
		gains, err := pp.GainsObj(nil, candidates, obj)
		if err != nil {
			t.Fatalf("nparts=%d: GainsObj: %v", nparts, err)
		}
		for i := range gains {
			if gains[i] != wantGains[i] {
				t.Fatalf("nparts=%d: GainsObj[%d] = %b, single engine %b", nparts, i, gains[i], wantGains[i])
			}
		}
		spread, err := pp.SpreadObj(res.Seeds[2:], obj)
		if err != nil {
			t.Fatalf("nparts=%d: SpreadObj: %v", nparts, err)
		}
		// Bit-identical across partition counts; against the exact
		// evaluator only the lambda-truncation envelope holds.
		if !haveTele {
			teleSpread, haveTele = spread, true
		} else if spread != teleSpread {
			t.Fatalf("nparts=%d: telescoped SpreadObj not bit-identical: %b vs %b", nparts, spread, teleSpread)
		}
		if wantSpread < spread-1e-6 || wantSpread > spread*1.25+1 {
			t.Fatalf("nparts=%d: SpreadObj %g far from evaluator %g", nparts, spread, wantSpread)
		}
	}
}

// TestObjectiveBudgetedSelection pins the budgeted facade path: the
// selection respects the budget, never picks blocked or zero-weight
// work-free candidates beyond the cap, and a budget over unit costs is a
// seed count cap matching the unbudgeted prefix.
func TestObjectiveBudgetedSelection(t *testing.T) {
	m, obj := objTestModel(t)
	n := m.Dataset().NumUsers()
	costs := make([]float64, n)
	for u := range costs {
		costs[u] = 1 + float64(u%5)
	}
	obj.Costs = costs
	obj.Budget = 9
	res, err := m.NewPlanner().Select(20, obj)
	if err != nil {
		t.Fatalf("SelectSeedsObj: %v", err)
	}
	if len(res.Seeds) == 0 {
		t.Fatal("budgeted selection picked nothing")
	}
	spent := 0.0
	for _, s := range res.Seeds {
		spent += costs[s]
	}
	if spent > obj.Budget {
		t.Fatalf("selection spends %g over budget %g", spent, obj.Budget)
	}

	capped, err := m.NewPlanner().Select(10, &Objective{Budget: 3})
	if err != nil {
		t.Fatalf("SelectSeedsObj(count cap): %v", err)
	}
	free := m.Selection(10)
	if len(capped.Seeds) != 3 {
		t.Fatalf("budget 3 over unit costs selected %d seeds", len(capped.Seeds))
	}
	for i := range capped.Seeds {
		if capped.Seeds[i] != free.Seeds[i] || capped.Gains[i] != free.Gains[i] {
			t.Fatalf("count-capped prefix diverged at %d", i)
		}
	}
}

// TestObjectiveBlockedSelection pins the rival-set contract at the
// facade: blocked seeds never reappear, and the remaining selection's
// gain sum matches the conditional spread of its seeds.
func TestObjectiveBlockedSelection(t *testing.T) {
	ds := Generate(tinyConfig(13))
	m := Learn(ds, Options{Lambda: 0.001})
	rival, _ := selectSeeds(m, 3)
	obj := &Objective{Blocked: rival}
	res, err := m.NewPlanner().Select(6, obj)
	if err != nil {
		t.Fatalf("SelectSeedsObj: %v", err)
	}
	blocked := make(map[NodeID]bool)
	for _, r := range rival {
		blocked[r] = true
	}
	for _, s := range res.Seeds {
		if blocked[s] {
			t.Fatalf("blocked seed %d selected", s)
		}
	}
	cond, err := m.SpreadObj(res.Seeds, obj)
	if err != nil {
		t.Fatalf("SpreadObj: %v", err)
	}
	// The exact evaluator spread is at least the lambda-truncated engine's
	// telescoped estimate, and close to it (same envelope as
	// TestLearnSelectPredict).
	if cond < res.Spread()-1e-6 || cond > res.Spread()*1.25+1 {
		t.Fatalf("conditional spread %g far from telescoped gain sum %g", cond, res.Spread())
	}
}

// TestObjectiveValidationErrors pins the facade rejections serve's 400s
// map onto.
func TestObjectiveValidationErrors(t *testing.T) {
	m, _ := objTestModel(t)
	n := m.Dataset().NumUsers()
	cases := map[string]*Objective{
		"unknown audience id":  {Audience: []NodeID{NodeID(n)}},
		"unknown blocked id":   {Blocked: []NodeID{NodeID(n + 5)}},
		"negative window":      {Windowed: true, Window: -2},
		"nan window":           {Windowed: true, Window: math.NaN()},
		"audience and weights": {Audience: []NodeID{1}, Weights: make([]float64, n)},
		"short weights":        {Weights: []float64{1, 2}},
		"negative weight":      {Weights: weightsWith(n, -1)},
		"nan weight":           {Weights: weightsWith(n, math.NaN())},
		"inf window":           {Windowed: true, Window: math.Inf(1)},
	}
	for name, o := range cases {
		if _, err := m.SpreadObj([]NodeID{1}, o); err == nil {
			t.Errorf("%s: SpreadObj accepted", name)
		}
		if _, err := m.NewPlanner().Select(3, o); err == nil {
			t.Errorf("%s: SelectSeedsObj accepted", name)
		}
	}
	selOnly := map[string]*Objective{
		"negative budget": {Budget: -4},
		"short costs":     {Costs: []float64{1}},
		"zero cost":       {Costs: make([]float64, n)},
	}
	for name, o := range selOnly {
		if _, err := m.NewPlanner().Select(3, o); err == nil {
			t.Errorf("%s: SelectSeedsObj accepted", name)
		}
	}
	if _, err := m.SpreadObj([]NodeID{1}, &Objective{Budget: 5}); err == nil ||
		!strings.Contains(err.Error(), "seed selection") {
		t.Errorf("budget on SpreadObj: err = %v, want selection-only rejection", err)
	}
	if _, err := m.NewPlanner().GainsObj(nil, []NodeID{1}, &Objective{Costs: make([]float64, n)}); err == nil {
		t.Error("costs on GainsObj accepted")
	}
}

// weightsWith is n uniform weights with the last one set to w.
func weightsWith(n int, w float64) []float64 {
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = 1
	}
	ws[n-1] = w
	return ws
}

// TestGainsObjFanBitIdentical pins the batched objective gain fan-out:
// pricing the whole candidate list at once (workers = the engine's knob,
// default GOMAXPROCS) is bit-identical to pricing one candidate at a time
// (a length-1 batch clamps the fan to a single worker — the serial path).
func TestGainsObjFanBitIdentical(t *testing.T) {
	m, obj := objTestModel(t)
	obj.Blocked = []NodeID{2, 40}
	base := []NodeID{1, 8}
	candidates := make([]NodeID, 60)
	for i := range candidates {
		candidates[i] = NodeID(i * 4)
	}
	batched, err := m.NewPlanner().GainsObj(base, candidates, obj)
	if err != nil {
		t.Fatalf("GainsObj: %v", err)
	}
	for i, c := range candidates {
		one, err := m.NewPlanner().GainsObj(base, []NodeID{c}, obj)
		if err != nil {
			t.Fatalf("GainsObj(%d): %v", c, err)
		}
		if one[0] != batched[i] {
			t.Fatalf("candidate %d: serial %b, fanned %b", c, one[0], batched[i])
		}
	}
	// The caller-supplied-planner variant fans identically.
	p := m.NewPlanner()
	onPlanner, err := p.GainsObj(base, candidates, obj)
	if err != nil {
		t.Fatalf("planner GainsObj: %v", err)
	}
	for i := range batched {
		if onPlanner[i] != batched[i] {
			t.Fatalf("planner GainsObj[%d] = %b, GainsObj = %b", i, onPlanner[i], batched[i])
		}
	}
}

// TestSeedsBlockedOverlap pins the seeds∩blocked semantics: a seed the
// objective already blocks contributes exactly 0 marginal spread and gain
// — the objective conditions on the rival set, so re-seeding a rival's
// seed buys nothing — at partition counts {1, 4}.
func TestSeedsBlockedOverlap(t *testing.T) {
	m, obj := objTestModel(t)
	obj.Blocked = []NodeID{3, 9}
	x := NodeID(21)

	gains, err := m.NewPlanner().GainsObj(nil, []NodeID{3, x, 9}, obj)
	if err != nil {
		t.Fatalf("GainsObj: %v", err)
	}
	if gains[0] != 0 || gains[2] != 0 {
		t.Fatalf("blocked candidates gained %b and %b, want exactly 0", gains[0], gains[2])
	}
	with, err := m.SpreadObj([]NodeID{3, x}, obj)
	if err != nil {
		t.Fatalf("SpreadObj(blocked seed): %v", err)
	}
	without, err := m.SpreadObj([]NodeID{x}, obj)
	if err != nil {
		t.Fatalf("SpreadObj: %v", err)
	}
	if with != without {
		t.Fatalf("blocked seed changed the conditional spread: %b vs %b", with, without)
	}
	for _, nparts := range []int{1, 4} {
		pp, err := m.NewPlanner().Partition(nparts)
		if err != nil {
			t.Fatalf("Partition(%d): %v", nparts, err)
		}
		pg, err := pp.GainsObj(nil, []NodeID{3, x, 9}, obj)
		if err != nil {
			t.Fatalf("nparts=%d: GainsObj: %v", nparts, err)
		}
		for i := range gains {
			if pg[i] != gains[i] {
				t.Fatalf("nparts=%d: GainsObj[%d] = %b, single engine %b", nparts, i, pg[i], gains[i])
			}
		}
		pw, err := pp.SpreadObj([]NodeID{3, x}, obj)
		if err != nil {
			t.Fatalf("nparts=%d: SpreadObj(blocked seed): %v", nparts, err)
		}
		pwo, err := pp.SpreadObj([]NodeID{x}, obj)
		if err != nil {
			t.Fatalf("nparts=%d: SpreadObj: %v", nparts, err)
		}
		if pw != pwo {
			t.Fatalf("nparts=%d: blocked seed changed the partitioned spread: %b vs %b", nparts, pw, pwo)
		}
	}
}
