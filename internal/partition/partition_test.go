package partition_test

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"credist"
	"credist/internal/core"
	"credist/internal/graph"
	"credist/internal/partition"
)

func TestSplitRanges(t *testing.T) {
	cases := []struct {
		users, n int
		want     []partition.Range
	}{
		{10, 1, []partition.Range{{0, 10}}},
		{10, 2, []partition.Range{{0, 5}, {5, 10}}},
		{10, 3, []partition.Range{{0, 4}, {4, 7}, {7, 10}}},
		{7, 7, []partition.Range{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}}},
		{3, 9, []partition.Range{{0, 1}, {1, 2}, {2, 3}}}, // clamped to numUsers
		{5, 0, []partition.Range{{0, 5}}},                 // clamped to 1
		{0, 4, []partition.Range{{0, 0}}},
	}
	for _, c := range cases {
		got := partition.SplitRanges(c.users, c.n)
		if len(got) != len(c.want) {
			t.Errorf("SplitRanges(%d,%d) = %v, want %v", c.users, c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SplitRanges(%d,%d)[%d] = %v, want %v", c.users, c.n, i, got[i], c.want[i])
			}
		}
		if err := partition.ValidateRanges(got, c.users); err != nil {
			t.Errorf("SplitRanges(%d,%d) fails its own validation: %v", c.users, c.n, err)
		}
	}
}

// TestValidateRangesMalformed is the satellite-1 table: every malformed
// shape a mis-assembled slice set can take is rejected with an error
// naming the offending ranges, so operators can diagnose from the
// message alone.
func TestValidateRangesMalformed(t *testing.T) {
	cases := []struct {
		name   string
		ranges []partition.Range
		users  int
		want   []string // substrings the error must contain
	}{
		{"empty", nil, 10, []string{"no row ranges"}},
		{"overlap", []partition.Range{{0, 6}, {4, 10}}, 10, []string{"[4,10)", "overlaps", "[0,6)"}},
		{"contained", []partition.Range{{0, 10}, {3, 7}}, 10, []string{"[3,7)", "overlaps", "[0,10)"}},
		{"duplicate", []partition.Range{{0, 5}, {0, 5}, {5, 10}}, 10, []string{"[0,5)", "overlaps", "[0,5)"}},
		{"gap", []partition.Range{{0, 4}, {6, 10}}, 10, []string{"gap", "[0,4)", "[6,10)", "[4,6)"}},
		{"missing head", []partition.Range{{2, 10}}, 10, []string{"[0,2)", "uncovered", "[2,10)"}},
		{"missing tail", []partition.Range{{0, 4}, {4, 8}}, 10, []string{"[8,10)", "uncovered", "[4,8)"}},
		{"inverted", []partition.Range{{6, 2}}, 10, []string{"[6,2)", "outside the universe"}},
		{"negative", []partition.Range{{-2, 5}, {5, 10}}, 10, []string{"[-2,5)", "outside the universe"}},
		{"beyond universe", []partition.Range{{0, 12}}, 10, []string{"[0,12)", "outside the universe"}},
	}
	for _, c := range cases {
		err := partition.ValidateRanges(c.ranges, c.users)
		if err == nil {
			t.Errorf("%s: ValidateRanges(%v, %d) accepted", c.name, c.ranges, c.users)
			continue
		}
		for _, sub := range c.want {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error %q does not name %q", c.name, err, sub)
			}
		}
	}
	// Order independence: a valid cover passed out of order still passes.
	if err := partition.ValidateRanges([]partition.Range{{5, 10}, {0, 5}}, 10); err != nil {
		t.Errorf("out-of-order valid cover rejected: %v", err)
	}
}

// TestNewRejectsMalformedPartitionSets drives the same malformed shapes
// through the tiling check with real engine slices — the path a
// snapshot-slice load takes.
func TestNewRejectsMalformedPartitionSets(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 44))
	g, log := randomInstance(rng, 30, 12)
	full := core.NewEngine(g, log, core.Options{})
	slice := func(lo, hi int) *core.Engine {
		t.Helper()
		p, err := full.Slice(lo, hi)
		if err != nil {
			t.Fatalf("Slice(%d,%d): %v", lo, hi, err)
		}
		return p
	}

	cases := []struct {
		name  string
		parts []*core.Engine
		want  string
	}{
		{"none", nil, "no engines"},
		{"overlap", []*core.Engine{slice(0, 20), slice(15, 30)}, "overlaps"},
		{"gap", []*core.Engine{slice(0, 10), slice(15, 30)}, "gap"},
		{"missing head", []*core.Engine{slice(5, 30)}, "uncovered"},
		{"missing tail", []*core.Engine{slice(0, 25)}, "uncovered"},
		{"full engine among partitions", []*core.Engine{full, slice(0, 30)}, "full model"},
	}
	for _, c := range cases {
		if _, err := partition.Tile(c.parts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Tile = %v, want error containing %q", c.name, err, c.want)
		}
	}

	// Mismatched universes: a slice of a different dataset cannot join.
	g2, log2 := randomInstance(rng, 20, 8)
	other := core.NewEngine(g2, log2, core.Options{})
	otherSlice, err := other.Slice(0, 20)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	if _, err := partition.Tile([]*core.Engine{slice(0, 20), otherSlice}); err == nil || !strings.Contains(err.Error(), "universe") {
		t.Errorf("mismatched universes: %v", err)
	}

	// A single full engine is the trivial cover and is accepted.
	if _, err := partition.Tile([]*core.Engine{full}); err != nil {
		t.Errorf("single full engine rejected: %v", err)
	}
}

// TestCoordinatorSpreadMatchesEvaluatorAtLambdaZero pins what the
// partitioned planner's spread is: with no truncation (lambda = 0) the
// telescoped gains over the UC structure equal the evaluator's exact
// sigma_cd to 1e-9 relative, at every partition count. The two never
// agree to the bit (the planner sums per seed, the evaluator per action),
// and at lambda > 0 the planner reads the truncated model's lower spread,
// so no tolerance is promised there.
func TestCoordinatorSpreadMatchesEvaluatorAtLambdaZero(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 2011))
	g, log := randomInstance(rng, 60, 40)
	m := credist.Learn(&credist.Dataset{Name: "lambda-zero", Graph: g, Log: log}, credist.Options{})
	for _, nparts := range []int{1, 3} {
		pp, err := m.NewPlanner().Partition(nparts)
		if err != nil {
			t.Fatalf("Partition(%d): %v", nparts, err)
		}
		for q := 0; q < 30; q++ {
			seeds := make([]graph.NodeID, 1+rng.IntN(6))
			for i := range seeds {
				seeds[i] = graph.NodeID(rng.IntN(g.NumNodes()))
			}
			got, err := pp.Spread(seeds)
			if err != nil {
				t.Fatalf("Spread(%v): %v", seeds, err)
			}
			want := m.Spread(seeds)
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("%d partitions, seeds %v: planner %.17g, evaluator %.17g", nparts, seeds, got, want)
			}
		}
	}
}
