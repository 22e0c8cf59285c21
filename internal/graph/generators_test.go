package graph

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestErdosRenyiDensity(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	n, p := 200, 0.05
	g := ErdosRenyi(n, p, rng)
	expected := float64(n*(n-1)) * p
	got := float64(g.NumEdges())
	if math.Abs(got-expected) > 0.25*expected {
		t.Fatalf("edges = %g, expected ~%g", got, expected)
	}
	if g2 := ErdosRenyi(50, 0, rng); g2.NumEdges() != 0 {
		t.Fatal("p=0 produced edges")
	}
}

func TestWattsStrogatzShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	g := WattsStrogatz(100, 4, 0.0, rng)
	// Without rewiring every node has out-degree exactly 4.
	for u := int32(0); u < 100; u++ {
		if g.OutDegree(u) != 4 {
			t.Fatalf("lattice out-degree = %d", g.OutDegree(u))
		}
	}
	rewired := WattsStrogatz(100, 4, 0.5, rng)
	if rewired.NumEdges() == 0 || rewired.NumEdges() > 400 {
		t.Fatalf("rewired edges = %d", rewired.NumEdges())
	}
	// Heavy rewiring destroys the lattice's regularity somewhere.
	same := true
	for u := int32(0); u < 100 && same; u++ {
		out := rewired.Out(u)
		for i, v := range out {
			if v != g.Out(u)[min(i, len(g.Out(u))-1)] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("beta=0.5 changed nothing")
	}
}
