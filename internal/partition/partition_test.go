package partition_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"credist"
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
