package graph

import (
	"bytes"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func mustGraph(t *testing.T, n int, edges [][2]NodeID) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := mustGraph(t, 4, [][2]NodeID{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 0}})
	if got := g.NumNodes(); got != 4 {
		t.Fatalf("NumNodes = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 5 {
		t.Fatalf("NumEdges = %d, want 5", got)
	}
	if got := g.OutDegree(0); got != 2 {
		t.Errorf("OutDegree(0) = %d, want 2", got)
	}
	if got := g.InDegree(2); got != 2 {
		t.Errorf("InDegree(2) = %d, want 2", got)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Errorf("HasEdge wrong: (0,1)=%v (1,0)=%v", g.HasEdge(0, 1), g.HasEdge(1, 0))
	}
	if got := g.AvgDegree(); got != 1.25 {
		t.Errorf("AvgDegree = %g, want 1.25", got)
	}
}

func TestBuilderRejectsSelfLoopAndRange(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(1, 1); err != ErrSelfLoop {
		t.Errorf("self loop error = %v, want ErrSelfLoop", err)
	}
	if err := b.AddEdge(0, 3); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := b.AddEdge(-1, 0); err == nil {
		t.Error("negative node accepted")
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	g := mustGraph(t, 3, [][2]NodeID{{0, 1}, {0, 1}, {0, 1}, {1, 2}})
	if got := g.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d, want 2 after dedup", got)
	}
}

func TestAddUndirected(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddUndirected(0, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("undirected edge missing a direction")
	}
}

func TestInOutConsistency(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 0))
		n := 2 + r.IntN(20)
		b := NewBuilder(n)
		for e := 0; e < n*3; e++ {
			u, v := NodeID(r.IntN(n)), NodeID(r.IntN(n))
			if u != v {
				_ = b.AddEdge(u, v)
			}
		}
		g := b.Build()
		// Every out-edge must appear as an in-edge and vice versa.
		outCount, inCount := 0, 0
		for u := NodeID(0); int(u) < n; u++ {
			for _, v := range g.Out(u) {
				outCount++
				found := false
				for _, w := range g.In(v) {
					if w == u {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
			inCount += g.InDegree(u)
		}
		return outCount == inCount && outCount == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	_ = rng
}

func TestAdjacencySorted(t *testing.T) {
	g := mustGraph(t, 5, [][2]NodeID{{0, 4}, {0, 2}, {0, 1}, {3, 0}, {2, 0}, {1, 0}})
	if !sort.SliceIsSorted(g.Out(0), func(i, j int) bool { return g.Out(0)[i] < g.Out(0)[j] }) {
		t.Errorf("Out(0) not sorted: %v", g.Out(0))
	}
	if !sort.SliceIsSorted(g.In(0), func(i, j int) bool { return g.In(0)[i] < g.In(0)[j] }) {
		t.Errorf("In(0) not sorted: %v", g.In(0))
	}
}

func TestTranspose(t *testing.T) {
	g := mustGraph(t, 3, [][2]NodeID{{0, 1}, {1, 2}})
	tr := g.Transpose()
	if !tr.HasEdge(1, 0) || !tr.HasEdge(2, 1) || tr.HasEdge(0, 1) {
		t.Error("transpose edges wrong")
	}
	back := tr.Transpose()
	if !back.HasEdge(0, 1) || !back.HasEdge(1, 2) || back.NumEdges() != 2 {
		t.Error("double transpose is not identity")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := mustGraph(t, 4, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	var pairs [][2]NodeID
	for _, e := range g.Edges() {
		pairs = append(pairs, [2]NodeID{e.From, e.To})
	}
	if g2 := mustGraph(t, 4, pairs); !reflect.DeepEqual(g2.Edges(), g.Edges()) {
		t.Fatalf("edges changed: %v vs %v", g2.Edges(), g.Edges())
	}
}

func TestEdgeListIO(t *testing.T) {
	g := mustGraph(t, 4, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for _, e := range g.Edges() {
		if !g2.HasEdge(e.From, e.To) {
			t.Errorf("edge %v lost", e)
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",
		"abc\n",
		"3\n1\n",
		"3\n0 zzz\n",
		"3\n0 0\n", // self loop
		"2\n0 5\n", // out of range
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(bytes.NewBufferString(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

// TestReadEdgeListRejectsNodeCountPastInt32: node ids are int32, so a
// header past math.MaxInt32 is refused on its line instead of wrapping
// through NewBuilder (4294967301 used to load a 5-node graph, 2147483648
// to fail on the first edge against a negative node count).
func TestReadEdgeListRejectsNodeCountPastInt32(t *testing.T) {
	for _, in := range []string{"4294967301\n0 1\n", "2147483648\n0 1\n"} {
		_, err := ReadEdgeList(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line 1:") {
			t.Errorf("ReadEdgeList(%q) error %v, want a line-1 node-count error", in, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewBuilder accepted a node count past math.MaxInt32")
		}
	}()
	n := int64(math.MaxInt32) + 1
	NewBuilder(int(n))
}

func TestReadEdgeListSkipsComments(t *testing.T) {
	g, err := ReadEdgeList(bytes.NewBufferString("# comment\n3\n\n0 1\n# another\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
}

func TestPageRankUniformOnCycle(t *testing.T) {
	g := mustGraph(t, 4, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	pr := PageRank(g)
	for i, p := range pr {
		if p < 0.24 || p > 0.26 {
			t.Errorf("rank[%d] = %g, want 0.25", i, p)
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	b := NewBuilder(30)
	for e := 0; e < 100; e++ {
		u, v := NodeID(rng.IntN(30)), NodeID(rng.IntN(30))
		if u != v {
			_ = b.AddEdge(u, v)
		}
	}
	pr := PageRank(b.Build())
	sum := 0.0
	for _, p := range pr {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("PageRank sum = %g, want 1", sum)
	}
}

func TestPageRankPrefersHub(t *testing.T) {
	// Star: everyone points at node 0.
	edges := [][2]NodeID{}
	for i := NodeID(1); i < 6; i++ {
		edges = append(edges, [2]NodeID{i, 0})
	}
	g := mustGraph(t, 6, edges)
	pr := PageRank(g)
	for i := 1; i < 6; i++ {
		if pr[0] <= pr[i] {
			t.Fatalf("hub rank %g not above leaf rank %g", pr[0], pr[i])
		}
	}
}

func TestTopKByScore(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.9, 0.2}
	top := TopKByScore(scores, 3)
	want := []NodeID{1, 3, 2} // ties by lower id
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("TopK = %v, want %v", top, want)
		}
	}
	if got := TopKByScore(scores, 99); len(got) != 5 {
		t.Fatalf("k>n returned %d items", len(got))
	}
}
