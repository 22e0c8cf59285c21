package cascade

import (
	"math"
	"math/rand/v2"
	"testing"

	"credist/internal/graph"
)

func lineGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestWeightsSetGet(t *testing.T) {
	g := lineGraph(t, 3)
	w := NewWeights(g)
	if err := w.Set(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if got := w.Get(0, 1); got != 0.5 {
		t.Fatalf("Get = %g, want 0.5", got)
	}
	if got := w.Get(1, 0); got != 0 {
		t.Fatalf("absent edge Get = %g, want 0", got)
	}
	if err := w.Set(0, 2, 0.3); err == nil {
		t.Fatal("Set on missing edge should fail")
	}
	if err := w.Set(0, 1, 1.5); err == nil {
		t.Fatal("Set with p>1 should fail")
	}
	if err := w.Set(0, 1, -0.1); err == nil {
		t.Fatal("Set with p<0 should fail")
	}
}

func TestWeightsRowsAligned(t *testing.T) {
	b := graph.NewBuilder(4)
	edges := [][2]graph.NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 3}, {2, 3}}
	for _, e := range edges {
		_ = b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	w := NewWeights(g)
	for i, e := range edges {
		if err := w.Set(e[0], e[1], float64(i+1)/10); err != nil {
			t.Fatal(err)
		}
	}
	out := g.Out(0)
	row := w.OutRow(0)
	for i, v := range out {
		if row[i] != w.Get(0, v) {
			t.Fatalf("OutRow misaligned at %d", i)
		}
	}
	in := g.In(3)
	irow := w.InRow(3)
	for i, v := range in {
		if irow[i] != w.Get(v, 3) {
			t.Fatalf("InRow misaligned at %d", i)
		}
	}
	if got, want := w.InSum(3), w.Get(0, 3)+w.Get(1, 3)+w.Get(2, 3); math.Abs(got-want) > 1e-12 {
		t.Fatalf("InSum = %g, want %g", got, want)
	}
}

func TestSimulateICDeterministicEdges(t *testing.T) {
	g := lineGraph(t, 5)
	w := NewWeights(g)
	for i := 0; i < 4; i++ {
		_ = w.Set(graph.NodeID(i), graph.NodeID(i+1), 1.0)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	if got := SimulateIC(w, []graph.NodeID{0}, rng, nil); got != 5 {
		t.Fatalf("p=1 chain spread = %d, want 5", got)
	}
	w2 := NewWeights(g) // all zero
	if got := SimulateIC(w2, []graph.NodeID{0}, rng, nil); got != 1 {
		t.Fatalf("p=0 spread = %d, want 1", got)
	}
}

func TestSimulateLTDeterministicEdges(t *testing.T) {
	g := lineGraph(t, 5)
	w := NewWeights(g)
	for i := 0; i < 4; i++ {
		_ = w.Set(graph.NodeID(i), graph.NodeID(i+1), 1.0)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	// Incoming weight 1 >= any threshold in [0,1): full chain activates.
	if got := SimulateLT(w, []graph.NodeID{0}, rng, nil); got != 5 {
		t.Fatalf("w=1 chain LT spread = %d, want 5", got)
	}
}

func TestSimulateDuplicateSeeds(t *testing.T) {
	g := lineGraph(t, 3)
	w := NewWeights(g)
	rng := rand.New(rand.NewPCG(2, 2))
	if got := SimulateIC(w, []graph.NodeID{0, 0, 0}, rng, nil); got != 1 {
		t.Fatalf("duplicate seeds counted: %d", got)
	}
	if got := SimulateLT(w, []graph.NodeID{1, 1}, rng, nil); got != 1 {
		t.Fatalf("duplicate LT seeds counted: %d", got)
	}
}

func TestMCEstimatorBounds(t *testing.T) {
	g := lineGraph(t, 10)
	w := NewWeights(g)
	for i := 0; i < 9; i++ {
		_ = w.Set(graph.NodeID(i), graph.NodeID(i+1), 0.5)
	}
	for _, model := range []Model{IC, LT} {
		mc := NewMCEstimator(w, model, MCOptions{Trials: 500, Seed: 42})
		sp := mc.Spread([]graph.NodeID{0})
		if sp < 1 || sp > 10 {
			t.Fatalf("%v spread %g out of [1,10]", model, sp)
		}
	}
}

func TestMCEstimatorDeterministicGivenSeed(t *testing.T) {
	g := lineGraph(t, 20)
	w := NewWeights(g)
	for i := 0; i < 19; i++ {
		_ = w.Set(graph.NodeID(i), graph.NodeID(i+1), 0.7)
	}
	mc1 := NewMCEstimator(w, IC, MCOptions{Trials: 200, Seed: 7, Workers: 4})
	mc2 := NewMCEstimator(w, IC, MCOptions{Trials: 200, Seed: 7, Workers: 4})
	if a, b := mc1.Spread([]graph.NodeID{0}), mc2.Spread([]graph.NodeID{0}); a != b {
		t.Fatalf("same seed gave %g vs %g", a, b)
	}
}

func TestMCEstimatorChainExpectation(t *testing.T) {
	// Chain 0->1 with p=0.5: expected spread of {0} is 1.5.
	g := lineGraph(t, 2)
	w := NewWeights(g)
	_ = w.Set(0, 1, 0.5)
	mc := NewMCEstimator(w, IC, MCOptions{Trials: 20000, Seed: 11})
	sp := mc.Spread([]graph.NodeID{0})
	if math.Abs(sp-1.5) > 0.03 {
		t.Fatalf("spread = %g, want ~1.5", sp)
	}
}

func TestMCEstimatorMonotoneInSeeds(t *testing.T) {
	g := lineGraph(t, 10)
	w := NewWeights(g)
	for i := 0; i < 9; i++ {
		_ = w.Set(graph.NodeID(i), graph.NodeID(i+1), 0.3)
	}
	mc := NewMCEstimator(w, IC, MCOptions{Trials: 2000, Seed: 5})
	s1 := mc.Spread([]graph.NodeID{0})
	s2 := mc.Spread([]graph.NodeID{0, 5})
	if s2 <= s1 {
		t.Fatalf("adding a seed should raise MC spread: %g vs %g", s1, s2)
	}
}

func TestGreedyEstimatorInterface(t *testing.T) {
	g := lineGraph(t, 6)
	w := NewWeights(g)
	for i := 0; i < 5; i++ {
		_ = w.Set(graph.NodeID(i), graph.NodeID(i+1), 1.0)
	}
	mc := NewMCEstimator(w, IC, MCOptions{Trials: 50, Seed: 3})
	est := NewGreedyEstimator(mc)
	if est.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d", est.NumNodes())
	}
	g0 := est.Gain(0) // deterministic chain: spread 6
	if math.Abs(g0-6) > 1e-9 {
		t.Fatalf("Gain(0) = %g, want 6", g0)
	}
	est.Add(0)
	if got := est.Gain(1); got != 0 {
		t.Fatalf("Gain(1) after covering chain = %g, want 0", got)
	}
	if seeds := est.Seeds(); len(seeds) != 1 || seeds[0] != 0 {
		t.Fatalf("Seeds = %v", seeds)
	}
}

func TestModelString(t *testing.T) {
	if IC.String() != "IC" || LT.String() != "LT" || Model(9).String() != "unknown" {
		t.Fatal("Model.String wrong")
	}
}
