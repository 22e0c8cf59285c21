package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"

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
	c, err := textrec.Read(r, "graph")
	if err != nil {
		return nil, err
	}
	if !c.Next() {
		return nil, fmt.Errorf("graph: empty input")
	}
	n, err := strconv.Atoi(string(c.Field()))
	if err != nil || n < 0 || c.Field() != nil {
		return nil, c.Errorf("expected node count, got %q", c.Record())
	}
	if n > math.MaxInt32 {
		return nil, c.Errorf("node count %d exceeds the int32 node ids", n)
	}
	// Every further line is at least "0 1\n".
	edges := make([]Edge, 0, c.Records(4))
	for c.Next() {
		f0, f1 := c.Field(), c.Field()
		if f1 == nil || c.Field() != nil {
			return nil, c.Errorf("expected 'from to', got %q", c.Record())
		}
		from, err := textrec.ParseInt32(f0)
		if err != nil {
			return nil, c.Errorf("bad from: %w", err)
		}
		to, err := textrec.ParseInt32(f1)
		if err != nil {
			return nil, c.Errorf("bad to: %w", err)
		}
		if err := checkEdge(int32(n), from, to); err != nil {
			return nil, c.Errorf("%w", err)
		}
		edges = append(edges, Edge{From: from, To: to})
	}
	return build(int32(n), edges), nil
}
