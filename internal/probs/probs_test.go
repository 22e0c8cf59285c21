package probs

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"credist/internal/actionlog"
	"credist/internal/datagen"
	"credist/internal/graph"
)

func chainGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestUniform(t *testing.T) {
	g := chainGraph(t, 4)
	w := Uniform(g, 0.01)
	for u := int32(0); u < 3; u++ {
		if got := w.Get(u, u+1); got != 0.01 {
			t.Fatalf("Get(%d,%d) = %g, want 0.01", u, u+1, got)
		}
	}
}

func TestTrivalencyValuesOnly(t *testing.T) {
	g := chainGraph(t, 50)
	rng := rand.New(rand.NewPCG(1, 1))
	w := Trivalency(g, rng)
	valid := map[float64]bool{0.1: true, 0.01: true, 0.001: true}
	for u := int32(0); u < 49; u++ {
		if p := w.Get(u, u+1); !valid[p] {
			t.Fatalf("TV probability %g not in palette", p)
		}
	}
}

func TestWeightedCascade(t *testing.T) {
	b := graph.NewBuilder(4)
	// Node 3 has in-degree 3.
	for i := int32(0); i < 3; i++ {
		_ = b.AddEdge(i, 3)
	}
	g := b.Build()
	w := WeightedCascade(g)
	for i := int32(0); i < 3; i++ {
		if got := w.Get(i, 3); math.Abs(got-1.0/3) > 1e-12 {
			t.Fatalf("WC prob = %g, want 1/3", got)
		}
	}
}

func TestPerturbBoundsAndScale(t *testing.T) {
	g := chainGraph(t, 100)
	base := Uniform(g, 0.5)
	rng := rand.New(rand.NewPCG(3, 3))
	pt := Perturb(base, 0.2, rng)
	for u := int32(0); u < 99; u++ {
		p := pt.Get(u, u+1)
		if p < 0.4-1e-12 || p > 0.6+1e-12 {
			t.Fatalf("perturbed p = %g outside [0.4,0.6]", p)
		}
	}
}

func TestPerturbClamps(t *testing.T) {
	g := chainGraph(t, 10)
	base := Uniform(g, 1.0)
	rng := rand.New(rand.NewPCG(4, 4))
	pt := Perturb(base, 0.5, rng)
	for u := int32(0); u < 9; u++ {
		if p := pt.Get(u, u+1); p > 1 {
			t.Fatalf("perturbed p = %g > 1", p)
		}
	}
}

// twoUserLog builds a log where user 0 performs nTotal actions and user 1
// copies the first nCopied of them one time-unit later.
func twoUserLog(t *testing.T, nTotal, nCopied int) *actionlog.Log {
	t.Helper()
	lb := actionlog.NewBuilder(2)
	for a := 0; a < nTotal; a++ {
		if err := lb.Add(0, actionlog.ActionID(a), float64(10*a)); err != nil {
			t.Fatal(err)
		}
		if a < nCopied {
			if err := lb.Add(1, actionlog.ActionID(a), float64(10*a+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return lb.Build()
}

func TestEMSingleEdgeFrequency(t *testing.T) {
	// One edge 0->1, user 1 copies 3 of user 0's 10 actions and performs
	// nothing else: the MLE influence probability is 3/10 and EM has a
	// single parent per activation, so it converges there exactly.
	g := chainGraph(t, 2)
	log := twoUserLog(t, 10, 3)
	w := LearnEMIC(g, log, EMOptions{})
	if got := w.Get(0, 1); math.Abs(got-0.3) > 1e-9 {
		t.Fatalf("EM p = %g, want 0.3", got)
	}
}

func TestEMProbabilitiesInRange(t *testing.T) {
	f := func(seed uint64) bool {
		ds := datagen.Generate(datagen.Config{
			Name: "t", NumUsers: 60, OutDegree: 3, Reciprocity: 0.5,
			NumActions: 40, MeanInfluence: 0.2, SpontaneousPerAction: 1,
			Seed: seed,
		})
		w := LearnEMIC(ds.Graph, ds.Log, EMOptions{MaxIter: 5})
		for u := int32(0); int(u) < ds.Graph.NumNodes(); u++ {
			for _, v := range ds.Graph.Out(u) {
				p := w.Get(u, v)
				if p < 0 || p > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestEMRecoversHighVsLowInfluence(t *testing.T) {
	// Ground truth: edge 0->1 has p=0.8, edge 0->2 has p=0.05. EM should
	// rank them correctly from simulated traces.
	b := graph.NewBuilder(3)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(0, 2)
	g := b.Build()
	rng := rand.New(rand.NewPCG(8, 8))
	lb := actionlog.NewBuilder(3)
	for a := 0; a < 300; a++ {
		_ = lb.Add(0, actionlog.ActionID(a), 0)
		if rng.Float64() < 0.8 {
			_ = lb.Add(1, actionlog.ActionID(a), 1)
		}
		if rng.Float64() < 0.05 {
			_ = lb.Add(2, actionlog.ActionID(a), 1)
		}
	}
	w := LearnEMIC(g, lb.Build(), EMOptions{})
	p1, p2 := w.Get(0, 1), w.Get(0, 2)
	if math.Abs(p1-0.8) > 0.1 || math.Abs(p2-0.05) > 0.05 {
		t.Fatalf("EM learned p(0,1)=%g p(0,2)=%g, want ~0.8 and ~0.05", p1, p2)
	}
}

func TestEMSparseSupportPathology(t *testing.T) {
	// The paper's user-168766 pathology: a user performing a single action
	// that all its followers copy gets probability 1 on those edges.
	b := graph.NewBuilder(4)
	for i := int32(1); i < 4; i++ {
		_ = b.AddEdge(0, i)
	}
	g := b.Build()
	lb := actionlog.NewBuilder(4)
	_ = lb.Add(0, 0, 0)
	for i := int32(1); i < 4; i++ {
		_ = lb.Add(graph.NodeID(i), 0, 1)
	}
	w := LearnEMIC(g, lb.Build(), EMOptions{})
	for i := int32(1); i < 4; i++ {
		if got := w.Get(0, i); math.Abs(got-1.0) > 1e-9 {
			t.Fatalf("single-support edge p = %g, want 1.0", got)
		}
	}
}

func TestLTWeightsNormalized(t *testing.T) {
	f := func(seed uint64) bool {
		ds := datagen.Generate(datagen.Config{
			Name: "t", NumUsers: 50, OutDegree: 3, Reciprocity: 0.5,
			NumActions: 30, MeanInfluence: 0.25, SpontaneousPerAction: 1,
			Seed: seed,
		})
		w := LearnLTWeights(ds.Graph, ds.Log)
		for u := int32(0); int(u) < ds.Graph.NumNodes(); u++ {
			if s := w.InSum(u); s > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestLTWeightsProportionalToCounts(t *testing.T) {
	// User 2's actions: 6 propagate from 0, 2 propagate from 1.
	b := graph.NewBuilder(3)
	_ = b.AddEdge(0, 2)
	_ = b.AddEdge(1, 2)
	g := b.Build()
	lb := actionlog.NewBuilder(3)
	a := 0
	for i := 0; i < 6; i++ {
		_ = lb.Add(0, actionlog.ActionID(a), 0)
		_ = lb.Add(2, actionlog.ActionID(a), 1)
		a++
	}
	for i := 0; i < 2; i++ {
		_ = lb.Add(1, actionlog.ActionID(a), 0)
		_ = lb.Add(2, actionlog.ActionID(a), 1)
		a++
	}
	w := LearnLTWeights(g, lb.Build())
	if got := w.Get(0, 2); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("w(0,2) = %g, want 0.75", got)
	}
	if got := w.Get(1, 2); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("w(1,2) = %g, want 0.25", got)
	}
}

func TestPropagationCounts(t *testing.T) {
	g := chainGraph(t, 3)
	log := twoUserLog(t, 5, 4)
	counts := propagationCounts(g, log)
	if got := counts[g.EdgeIndex(0, 1)]; got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
}
