package graph

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// refEdgeList reads an edge list the plain way — lines split on '\n',
// fields by strings.Fields, numbers by strconv — and returns the node
// count, the edges in file order, and the line of the first error (0
// when there is none, -1 when the input holds no record).
func refEdgeList(text string) (n int, edges []Edge, errLine int) {
	header := false
	for i, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0][0] == '#' {
			continue
		}
		if !header {
			var err error
			if n, err = strconv.Atoi(f[0]); err != nil || n < 0 || len(f) != 1 || n > math.MaxInt32 {
				return 0, nil, i + 1
			}
			header = true
			continue
		}
		if len(f) != 2 {
			return 0, nil, i + 1
		}
		from, err1 := strconv.ParseInt(f[0], 10, 32)
		to, err2 := strconv.ParseInt(f[1], 10, 32)
		if err1 != nil || err2 != nil || from == to || from < 0 || to < 0 || from >= int64(n) || to >= int64(n) {
			return 0, nil, i + 1
		}
		edges = append(edges, Edge{From: NodeID(from), To: NodeID(to)})
	}
	if !header {
		return 0, nil, -1
	}
	return n, edges, 0
}

// FuzzReadEdgeListMatchesReference holds ReadEdgeList to refEdgeList on
// arbitrary text: both fail on the same line, or both give the same
// graph — node count and every successor and predecessor list.
func FuzzReadEdgeListMatchesReference(f *testing.F) {
	for _, seed := range []string{
		"",
		"3\n0 1\n1 2\n",
		"# c\n\n4\n  0\t3 \r\n3 0\n0 3\n",
		"3\n0 1 2\n",
		"3\n1 1\n",
		"3\n0 3\n",
		"3\n-1 0\n",
		"3\n+1 0\n",
		"3\n0x1 0\n",
		"3\n2147483648 0\n",
		"-1\n",
		"3 4\n",
		"3\n4\n",
		"2147483648\n",
		" 3 \n0\u00851\n1\u00a02\n",
		"3\u3000\n0\u20031\u00a0\n1\u2028 2\n",
		"5\n4 0\n3 1\n# 9 9\n2 1\n1 2\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges, errLine := refEdgeList(string(data))
		if n > 1<<16 {
			return // a hostile node count sizes the CSR index; not this test's concern
		}
		g, err := ReadEdgeList(bytes.NewReader(data))
		switch {
		case errLine == -1:
			if err == nil || err.Error() != "graph: empty input" {
				t.Fatalf("%q: error %v, want graph: empty input", data, err)
			}
			return
		case errLine > 0:
			if want := fmt.Sprintf("graph: line %d: ", errLine); err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("%q: error %v, want one starting %q", data, err, want)
			}
			return
		case err != nil:
			t.Fatalf("%q: the reference accepts it, ReadEdgeList errs: %v", data, err)
		}
		if g.NumNodes() != n {
			t.Fatalf("%q: %d nodes, want %d", data, g.NumNodes(), n)
		}
		out, in := make([][]NodeID, n), make([][]NodeID, n)
		for _, e := range edges {
			out[e.From] = append(out[e.From], e.To)
			in[e.To] = append(in[e.To], e.From)
		}
		for u := range NodeID(n) {
			slices.Sort(out[u])
			slices.Sort(in[u])
			if !slices.Equal(g.Out(u), slices.Compact(out[u])) || !slices.Equal(g.In(u), slices.Compact(in[u])) {
				t.Fatalf("%q: node %d has out %v in %v, want %v %v", data, u, g.Out(u), g.In(u), out[u], in[u])
			}
		}
	})
}

// TestReadEdgeListAllocsDoNotScale: reading an edge list file allocates
// a fixed number of times, however many lines it has.
func TestReadEdgeListAllocsDoNotScale(t *testing.T) {
	allocs := func(lines int) float64 {
		var b bytes.Buffer
		fmt.Fprintln(&b, 1000)
		for i := range lines {
			fmt.Fprintf(&b, "%d %d\n", i%1000, (i*7+1)%1000)
		}
		path := filepath.Join(t.TempDir(), "g.txt")
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := ReadEdgeList(f); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(2000), allocs(16000); large > small+2 {
		t.Fatalf("%v allocations for 2000 lines, %v for 16000", small, large)
	}
}
