package actionlog

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"credist/internal/graph"
)

func buildLog(t *testing.T, numUsers int, tuples []Tuple) *Log {
	t.Helper()
	l, err := FromTuples(numUsers, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLogBasics(t *testing.T) {
	l := buildLog(t, 4, []Tuple{
		{User: 0, Action: 0, Time: 1},
		{User: 1, Action: 0, Time: 2},
		{User: 2, Action: 1, Time: 5},
		{User: 0, Action: 1, Time: 3},
	})
	if got := l.NumActions(); got != 2 {
		t.Fatalf("NumActions = %d, want 2", got)
	}
	if got := l.NumTuples(); got != 4 {
		t.Fatalf("NumTuples = %d, want 4", got)
	}
	if got := l.ActionCount(0); got != 2 {
		t.Fatalf("ActionCount(0) = %d, want 2", got)
	}
	if got := l.Size(0); got != 2 {
		t.Fatalf("Size(0) = %d, want 2", got)
	}
	if ts, ok := l.PerformedAt(0, 1); !ok || ts != 3 {
		t.Fatalf("PerformedAt(0,1) = %g,%v", ts, ok)
	}
	if _, ok := l.PerformedAt(3, 0); ok {
		t.Fatal("PerformedAt should report absence")
	}
}

func TestDuplicateKeepsEarliest(t *testing.T) {
	l := buildLog(t, 2, []Tuple{
		{User: 0, Action: 0, Time: 9},
		{User: 0, Action: 0, Time: 4},
		{User: 0, Action: 0, Time: 7},
	})
	if got := l.NumTuples(); got != 1 {
		t.Fatalf("NumTuples = %d, want 1", got)
	}
	if ts, _ := l.PerformedAt(0, 0); ts != 4 {
		t.Fatalf("kept time %g, want earliest 4", ts)
	}
}

func TestActionChronological(t *testing.T) {
	l := buildLog(t, 5, []Tuple{
		{User: 3, Action: 0, Time: 5},
		{User: 1, Action: 0, Time: 1},
		{User: 4, Action: 0, Time: 3},
	})
	tuples := l.Action(0)
	for i := 1; i < len(tuples); i++ {
		if tuples[i].Time < tuples[i-1].Time {
			t.Fatalf("tuples not chronological: %v", tuples)
		}
	}
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder(2)
	if err := b.Add(2, 0, 1); err == nil {
		t.Error("out-of-range user accepted")
	}
	if err := b.Add(0, -1, 1); err == nil {
		t.Error("negative action accepted")
	}
}

func linearGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestPropagationChain(t *testing.T) {
	g := linearGraph(t, 4) // 0->1->2->3
	l := buildLog(t, 4, []Tuple{
		{User: 0, Action: 0, Time: 1},
		{User: 1, Action: 0, Time: 2},
		{User: 2, Action: 0, Time: 3},
		{User: 3, Action: 0, Time: 4},
	})
	p := BuildPropagation(l, g, 0)
	if p.Size() != 4 {
		t.Fatalf("Size = %d, want 4", p.Size())
	}
	inits := p.Initiators()
	if len(inits) != 1 || inits[0] != 0 {
		t.Fatalf("Initiators = %v, want [0]", inits)
	}
	for i := 1; i < 4; i++ {
		if p.InDegree(int32(i)) != 1 {
			t.Fatalf("InDegree(%d) = %d, want 1", i, p.InDegree(int32(i)))
		}
	}
}

func TestPropagationTiesDoNotInfluence(t *testing.T) {
	g := linearGraph(t, 2)
	l := buildLog(t, 2, []Tuple{
		{User: 0, Action: 0, Time: 5},
		{User: 1, Action: 0, Time: 5}, // same instant: no propagation
	})
	p := BuildPropagation(l, g, 0)
	if got := len(p.Initiators()); got != 2 {
		t.Fatalf("initiators = %d, want 2 (ties don't propagate)", got)
	}
}

func TestPropagationIsDAG(t *testing.T) {
	// Property: parents always precede children in chronological index.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := 5 + rng.IntN(15)
		gb := graph.NewBuilder(n)
		for e := 0; e < n*2; e++ {
			u, v := graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n))
			if u != v {
				_ = gb.AddEdge(u, v)
			}
		}
		g := gb.Build()
		lb := NewBuilder(n)
		for u := 0; u < n; u++ {
			if rng.Float64() < 0.7 {
				_ = lb.Add(graph.NodeID(u), 0, float64(rng.IntN(10)))
			}
		}
		l := lb.Build()
		if l.NumActions() == 0 {
			return true
		}
		p := BuildPropagation(l, g, 0)
		for i := range p.Users {
			for _, j := range p.Parents[i] {
				if j >= int32(i) && p.Times[j] >= p.Times[i] {
					return false
				}
				if p.Times[j] >= p.Times[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitRatioAndDisjoint(t *testing.T) {
	lb := NewBuilder(50)
	rng := rand.New(rand.NewPCG(2, 2))
	for a := 0; a < 100; a++ {
		size := 1 + rng.IntN(20)
		perm := rng.Perm(50)
		for i := 0; i < size; i++ {
			_ = lb.Add(graph.NodeID(perm[i]), ActionID(a), float64(i))
		}
	}
	l := lb.Build()
	train, test, trainOrig, testOrig := Split(l)
	if train.NumActions() != 80 || test.NumActions() != 20 {
		t.Fatalf("split = %d/%d, want 80/20", train.NumActions(), test.NumActions())
	}
	seen := map[ActionID]bool{}
	for _, a := range trainOrig {
		seen[a] = true
	}
	for _, a := range testOrig {
		if seen[a] {
			t.Fatalf("action %d in both splits", a)
		}
	}
	if train.NumTuples()+test.NumTuples() != l.NumTuples() {
		t.Fatal("tuples lost in split")
	}
}

func TestSplitPreservesSizeDistribution(t *testing.T) {
	lb := NewBuilder(200)
	rng := rand.New(rand.NewPCG(3, 3))
	for a := 0; a < 200; a++ {
		size := 1 + rng.IntN(100)
		perm := rng.Perm(200)
		for i := 0; i < size; i++ {
			_ = lb.Add(graph.NodeID(perm[i]), ActionID(a), float64(i))
		}
	}
	train, test, _, _ := Split(lb.Build())
	meanTrain := float64(train.NumTuples()) / float64(train.NumActions())
	meanTest := float64(test.NumTuples()) / float64(test.NumActions())
	// Every-fifth-by-rank keeps the distributions close.
	if meanTest < meanTrain*0.7 || meanTest > meanTrain*1.3 {
		t.Fatalf("size distributions diverged: train %.1f test %.1f", meanTrain, meanTest)
	}
}

func TestRestrict(t *testing.T) {
	l := buildLog(t, 3, []Tuple{
		{User: 0, Action: 0, Time: 1},
		{User: 1, Action: 1, Time: 2},
		{User: 2, Action: 2, Time: 3},
	})
	r := l.Restrict([]ActionID{2, 0})
	if r.NumActions() != 2 {
		t.Fatalf("NumActions = %d, want 2", r.NumActions())
	}
	// Action 0 of r is original action 2.
	if ts, ok := r.PerformedAt(2, 0); !ok || ts != 3 {
		t.Fatalf("renumbering broken: %g,%v", ts, ok)
	}
}

func TestSummarize(t *testing.T) {
	l := buildLog(t, 5, []Tuple{
		{User: 0, Action: 0, Time: 1},
		{User: 1, Action: 0, Time: 2},
		{User: 0, Action: 1, Time: 3},
	})
	st := Summarize(l)
	if st.NumTuples != 3 || st.NumActions != 2 || st.MaxSize != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ActiveUsers != 2 {
		t.Fatalf("ActiveUsers = %d, want 2", st.ActiveUsers)
	}
	if st.MeanSize != 1.5 {
		t.Fatalf("MeanSize = %g, want 1.5", st.MeanSize)
	}
}

func TestLogIORoundTrip(t *testing.T) {
	l := buildLog(t, 5, []Tuple{
		{User: 0, Action: 0, Time: 1.5},
		{User: 1, Action: 0, Time: 2.25},
		{User: 2, Action: 1, Time: 3},
	})
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	l2, err := Read(&buf, l.NumUsers())
	if err != nil {
		t.Fatal(err)
	}
	if l2.NumUsers() != l.NumUsers() || l2.NumTuples() != l.NumTuples() || l2.NumActions() != l.NumActions() {
		t.Fatal("round trip changed shape")
	}
	if ts, ok := l2.PerformedAt(1, 0); !ok || ts != 2.25 {
		t.Fatalf("timestamp lost: %g,%v", ts, ok)
	}
}

func TestReadErrors(t *testing.T) {
	for _, in := range []string{"", "x\n", "2\n0\n", "2\n0 0 zz\n", "2\n9 0 1\n"} {
		if _, err := Read(bytes.NewBufferString(in), 8); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

// TestReadRejectsNonFiniteTimes: a NaN time would break the canonical
// time order (NaN compares false both ways) and poison every time-aware
// credit through exp(-NaN/tau), so Read and FromTuples refuse NaN and
// infinite times as Log.Append does, Read naming the line.
func TestReadRejectsNonFiniteTimes(t *testing.T) {
	for _, tc := range []struct{ in, line string }{
		{"3\n0 0 NaN\n1 0 1\n2 0 0.5\n", "line 2:"},
		{"3\n0 0 1\n1 0 +Inf\n", "line 3:"},
		{"3\n# c\n0 0 1\n1 0 2\n2 1 -Inf\n", "line 5:"},
	} {
		_, err := Read(strings.NewReader(tc.in), 8)
		if err == nil || !strings.Contains(err.Error(), tc.line) || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("Read(%q) error %v, want a %q non-finite time error", tc.in, err, tc.line)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := FromTuples(2, []Tuple{{User: 0, Action: 0, Time: 1}, {User: 1, Action: 0, Time: bad}}); err == nil {
			t.Errorf("FromTuples accepted time %v", bad)
		}
	}
}

// TestReadRejectsNegativeUserCount: a negative user-count header used to
// pass Read and panic when the log was built.
func TestReadRejectsNegativeUserCount(t *testing.T) {
	for _, in := range []string{"-3\n", "-1\n0 0 1\n"} {
		if _, err := Read(strings.NewReader(in), 8); err == nil {
			t.Errorf("Read(%q) accepted a negative user count", in)
		}
	}
}

// TestReadRejectsActionIDsPastInt32: the action offsets take maxAction+2
// int32 slots, so an id whose count wraps int32 used to panic in Build;
// Read refuses it on its line.
func TestReadRejectsActionIDsPastInt32(t *testing.T) {
	for _, tc := range []struct{ in, line string }{
		{"2\n0 2147483647 1\n", "line 2:"},
		{"2\n0 0 1\n1 2147483646 1\n", "line 3:"},
	} {
		_, err := Read(strings.NewReader(tc.in), 8)
		if err == nil || !strings.Contains(err.Error(), tc.line) || !strings.Contains(err.Error(), "action id") {
			t.Errorf("Read(%q) error %v, want a %q action-id error", tc.in, err, tc.line)
		}
	}
}

// TestReadRejectsHostileUserCount: a user-count header beyond the graph
// is refused on its own line, before anything is sized by it — a 2e9
// header costs less than 1 MiB — and so is a user id past the header.
func TestReadRejectsHostileUserCount(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(strings.NewReader("2000000000\n0 0 1\n1999999999 0 2\n"), 100)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "line 1:") || !strings.Contains(err.Error(), "exceeds the graph") {
		t.Fatalf("2e9 header: error %v, want a line-1 bound error", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("rejecting a 2e9 header allocated %d bytes", alloc)
	}
	if _, err := Read(strings.NewReader("100\n0 0 1\n100 0 2\n"), 100); err == nil || !strings.Contains(err.Error(), "line 3:") {
		t.Fatalf("user id past the header: error %v, want a line-3 range error", err)
	}
	if _, err := Read(strings.NewReader("100\n0 0 1\n99 0 2\n"), 100); err != nil {
		t.Fatalf("header at the bound: %v", err)
	}
}

// TestReadAllocsDoNotScale: reading a log file allocates a fixed number
// of times, however many lines it has: no per-line string, and the tuple
// slice sized once from the bytes read.
func TestReadAllocsDoNotScale(t *testing.T) {
	allocs := func(lines int) float64 {
		var b bytes.Buffer
		fmt.Fprintln(&b, 500)
		for i := range lines {
			fmt.Fprintf(&b, "%d %d %g\n", i%500, i/50, float64(i)*1.37)
		}
		path := filepath.Join(t.TempDir(), "log.txt")
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := Read(f, 500); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(2000), allocs(16000); large > small+2 {
		t.Fatalf("%v allocations for 2000 lines, %v for 16000", small, large)
	}
}
