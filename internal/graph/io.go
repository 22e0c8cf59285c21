package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"credist/internal/textrec"
)

// WriteEdgeList writes the graph as a plain-text edge list:
//
//	<numNodes>
//	<from> <to>
//	...
//
// one edge per line, the format cmd/datagen emits and cmd/credist consumes.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d\n", g.NumNodes()); err != nil {
		return err
	}
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		for _, v := range g.Out(u) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the format written by WriteEdgeList. Blank lines and
// lines starting with '#' are ignored.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	var b *Builder
	err := textrec.Scan(r, "graph", func(_ int, f []string) error {
		if b == nil {
			n, err := strconv.Atoi(f[0])
			if err != nil || n < 0 || len(f) != 1 {
				return fmt.Errorf("expected node count, got %q", strings.Join(f, " "))
			}
			if n > math.MaxInt32 {
				return fmt.Errorf("node count %d exceeds the int32 node ids", n)
			}
			b = NewBuilder(n)
			return nil
		}
		if len(f) != 2 {
			return fmt.Errorf("expected 'from to', got %q", strings.Join(f, " "))
		}
		from, err := strconv.ParseInt(f[0], 10, 32)
		if err != nil {
			return fmt.Errorf("bad from: %w", err)
		}
		to, err := strconv.ParseInt(f[1], 10, 32)
		if err != nil {
			return fmt.Errorf("bad to: %w", err)
		}
		return b.AddEdge(NodeID(from), NodeID(to))
	})
	switch {
	case err != nil:
		return nil, err
	case b == nil:
		return nil, fmt.Errorf("graph: empty input")
	}
	return b.Build(), nil
}
