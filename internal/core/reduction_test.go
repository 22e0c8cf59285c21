package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"credist/internal/graph"
)

// randomConnectedEdges draws a random undirected graph on n nodes with no
// isolated vertices (the reduction's spread identity needs every node to
// act, which requires at least one incident edge).
func randomConnectedEdges(rng *rand.Rand, n int) [][2]graph.NodeID {
	var edges [][2]graph.NodeID
	seen := map[[2]graph.NodeID]bool{}
	add := func(a, b graph.NodeID) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		key := [2]graph.NodeID{a, b}
		if !seen[key] {
			seen[key] = true
			edges = append(edges, key)
		}
	}
	// Spanning path guarantees min degree 1.
	for i := 1; i < n; i++ {
		add(graph.NodeID(i-1), graph.NodeID(i))
	}
	extra := rng.IntN(n * 2)
	for i := 0; i < extra; i++ {
		add(graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n)))
	}
	return edges
}

func isVertexCover(edges [][2]graph.NodeID, s map[graph.NodeID]bool) bool {
	for _, e := range edges {
		if !s[e[0]] && !s[e[1]] {
			return false
		}
	}
	return true
}

// TestTheorem1Equivalence brute-forces the iff of the NP-hardness proof on
// random small graphs: S is a vertex cover exactly when sigma_cd(S)
// reaches the threshold k + (|V|-k)/2 under simple credit (alpha = 1).
func TestTheorem1Equivalence(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xc0de))
		n := 4 + rng.IntN(5) // 4..8 nodes: 2^n subsets stay cheap
		edges := randomConnectedEdges(rng, n)
		g, log, err := VertexCoverReduction(n, edges)
		if err != nil {
			return false
		}
		ev := NewEvaluator(g, log, SimpleCredit{})
		for mask := 0; mask < 1<<n; mask++ {
			var seeds []graph.NodeID
			inS := map[graph.NodeID]bool{}
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					seeds = append(seeds, graph.NodeID(i))
					inS[graph.NodeID(i)] = true
				}
			}
			spread := ev.Spread(seeds, nil)
			threshold := CoverThreshold(len(seeds), n, 1)
			cover := isVertexCover(edges, inS)
			if cover && spread < threshold-1e-9 {
				t.Logf("cover %v spread %g below threshold %g", seeds, spread, threshold)
				return false
			}
			if !cover && spread >= threshold-1e-9 {
				t.Logf("non-cover %v spread %g reaches threshold %g", seeds, spread, threshold)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestReductionSpreadFormula verifies the exact spread value the proof
// computes for a vertex cover: sigma_cd(S) = k + (|V|-k)/2.
func TestReductionSpreadFormula(t *testing.T) {
	// Star graph: center 0, leaves 1..4. {0} is a vertex cover.
	edges := [][2]graph.NodeID{{0, 1}, {0, 2}, {0, 3}, {0, 4}}
	g, log, err := VertexCoverReduction(5, edges)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(g, log, SimpleCredit{})
	got := ev.Spread([]graph.NodeID{0}, nil)
	want := CoverThreshold(1, 5, 1) // 1 + 4/2 = 3
	if !almostEqual(got, want) {
		t.Fatalf("star cover spread = %g, want %g", got, want)
	}
}

func TestReductionRejectsSelfLoop(t *testing.T) {
	if _, _, err := VertexCoverReduction(2, [][2]graph.NodeID{{1, 1}}); err == nil {
		t.Fatal("self loop accepted")
	}
}
