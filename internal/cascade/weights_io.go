package cascade

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"credist/internal/graph"
	"credist/internal/textrec"
)

// WriteWeights serializes edge weights as plain text:
//
//	<numNodes>
//	<from> <to> <probability>
//	...
//
// Only edges with nonzero weight are written; learned probability maps are
// sparse, so this is compact. ReadWeights restores against a graph with
// the same node universe.
func WriteWeights(w io.Writer, ws *Weights) error {
	bw := bufio.NewWriter(w)
	g := ws.Graph()
	if _, err := fmt.Fprintf(bw, "%d\n", g.NumNodes()); err != nil {
		return err
	}
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		row := g.Out(u)
		probs := ws.OutRow(u)
		for i, v := range row {
			if p := probs[i]; p > 0 {
				if _, err := fmt.Fprintf(bw, "%d %d %g\n", u, v, p); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadWeights parses the format written by WriteWeights and attaches the
// weights to g. Edges present in the file but absent from g are an error:
// weights are meaningless without their graph.
func ReadWeights(r io.Reader, g *graph.Graph) (*Weights, error) {
	c, err := textrec.Read(r, "cascade")
	if err != nil {
		return nil, err
	}
	if !c.Next() {
		return nil, fmt.Errorf("cascade: empty weights input")
	}
	n, err := strconv.Atoi(string(c.Field()))
	if err != nil || c.Field() != nil {
		return nil, c.Errorf("expected node count, got %q", c.Record())
	}
	if n != g.NumNodes() {
		return nil, c.Errorf("weights for %d nodes, graph has %d", n, g.NumNodes())
	}
	ws := NewWeights(g)
	for c.Next() {
		f0, f1, f2 := c.Field(), c.Field(), c.Field()
		if f2 == nil || c.Field() != nil {
			return nil, c.Errorf("expected 'from to p', got %q", c.Record())
		}
		u, err := textrec.ParseInt32(f0)
		if err != nil {
			return nil, c.Errorf("bad from: %w", err)
		}
		v, err := textrec.ParseInt32(f1)
		if err != nil {
			return nil, c.Errorf("bad to: %w", err)
		}
		p, err := textrec.ParseFloat(f2)
		if err != nil {
			return nil, c.Errorf("bad probability: %w", err)
		}
		if err := ws.Set(u, v, p); err != nil {
			return nil, c.Errorf("%w", err)
		}
	}
	return ws, nil
}
