package actionlog

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"credist/internal/graph"
)

// FuzzParseTuples drives the ingest tuple parser with arbitrary text. It
// must never panic, and every input it accepts must re-encode through
// WriteTuples to a stream that parses back to the same header and the
// same tuples, bit for bit (times compared by their float64 bits, so
// NaN, infinities and signed zeros count too).
func FuzzParseTuples(f *testing.F) {
	for _, seed := range []string{
		"",
		"4\n0 0 1\n1 0 2.5\n",
		"# comment\n\n3 1 0.25\n2 1 -0\n",
		"7\n",
		"+3\n-1 +2 1e300\n5 5 0x1p-3\n",
		"2 0 NaN\n1 0 -Inf\n",
		"4\n0 0 1\n5\n",
		"0 0\n",
		"99999999999 0 1\n",
		"1 2 3 4\n",
		"  \t3\t4   5.5  \r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tuples, users, err := ParseTuples(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTuples(&buf, users, tuples); err != nil {
			t.Fatalf("WriteTuples: %v", err)
		}
		back, backUsers, err := ParseTuples(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("re-encoded stream %q rejected: %v", buf.String(), err)
		}
		if backUsers != users || len(back) != len(tuples) {
			t.Fatalf("round trip: %d users / %d tuples, want %d / %d", backUsers, len(back), users, len(tuples))
		}
		for i, tu := range tuples {
			b := back[i]
			if b.User != tu.User || b.Action != tu.Action || math.Float64bits(b.Time) != math.Float64bits(tu.Time) {
				t.Fatalf("tuple %d: %+v round-tripped to %+v", i, tu, b)
			}
		}
	})
}

// FuzzReadMatchesReference holds Read to the map-based reference it
// replaced (reference_test.go): for any text, both reject it, or both
// build the same log — tuples with times compared by their float64 bits,
// action offsets and per-user counts — and, when the log's users fit the
// fixed graph below, the same propagation DAG for every action.
func FuzzReadMatchesReference(f *testing.F) {
	for _, seed := range []string{
		"",
		"4\n0 0 1\n1 0 2.5\n",
		"3\n0 0 NaN\n1 0 1\n2 0 0.5\n",
		"8\n2 1 5\n0 0 3\n1 0 3\n0 0 1\n7 2 -0\n7 2 0\n3 1 5\n",
		"8\n0 0 1\n1 0 2\n2 0 2\n3 0 4\n4 0 1e-300\n5 1 9\n6 1 8\n0 1 7\n",
		"# comment\n\n5\n  1\t0\t2  \r\n4 0 1 # no\n",
		" 3 \n0\u00850 1\n",
		"-3\n",
		"3\n0 0 1\n3\n",
		"2\n0 0 +Inf\n",
		"6\n0 3 1\n5 3 0x1p-2\n1 0 2\n",
		"2\n0 2147483647 1\n",
	} {
		f.Add([]byte(seed))
	}
	gb := graph.NewBuilder(8)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 0}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {5, 6}, {6, 7}, {7, 5}, {0, 7}, {3, 1}} {
		_ = gb.AddEdge(e[0], e[1])
	}
	g := gb.Build()
	// Both implementations refuse a user count past maxUsers, as the graph
	// bound does in production, so user ids are bounded too.
	const maxUsers = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		// Both implementations size dense arrays by the largest action id,
		// as the format defines them; accepted ids past 1<<16 would only
		// exercise the allocator. Ids past maxActionID are refused unsized.
		if tuples, _, err := ParseTuples(bytes.NewReader(data)); err == nil {
			for _, tu := range tuples {
				if tu.Action > 1<<16 && tu.Action <= maxActionID {
					return
				}
			}
		}
		got, err := Read(bytes.NewReader(data), maxUsers)
		want, refErr := refRead(bytes.NewReader(data), maxUsers)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Read error %v, reference error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if got.numUsers != want.numUsers || !slices.Equal(got.actionIdx, want.actionIdx) || !slices.Equal(got.userCounts, want.userCounts) {
			t.Fatalf("log shape: %d users %v %v, reference %d users %v %v",
				got.numUsers, got.actionIdx, got.userCounts, want.numUsers, want.actionIdx, want.userCounts)
		}
		sameTuple := func(x, y Tuple) bool {
			return x.User == y.User && x.Action == y.Action && math.Float64bits(x.Time) == math.Float64bits(y.Time)
		}
		if !slices.EqualFunc(got.tuples, want.tuples, sameTuple) {
			t.Fatalf("tuples %v, reference %v", got.tuples, want.tuples)
		}
		if got.NumUsers() > g.NumNodes() {
			return
		}
		for a := ActionID(0); int(a) < got.NumActions(); a++ {
			p, q := BuildPropagation(got, g, a), refBuildPropagation(want, g, a)
			if !slices.Equal(p.Users, q.Users) || !slices.EqualFunc(p.Times, q.Times, func(x, y Timestamp) bool {
				return math.Float64bits(x) == math.Float64bits(y)
			}) || !slices.EqualFunc(p.Parents, q.Parents, slices.Equal) {
				t.Fatalf("action %d: propagation %+v, reference %+v", a, p, q)
			}
		}
	})
}
