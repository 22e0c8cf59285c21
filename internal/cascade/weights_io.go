package cascade

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

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
	ws := NewWeights(g)
	sawHeader := false
	err := textrec.Scan(r, "cascade", func(_ int, f []string) error {
		if !sawHeader {
			n, err := strconv.Atoi(f[0])
			if err != nil || len(f) != 1 {
				return fmt.Errorf("expected node count, got %q", strings.Join(f, " "))
			}
			if n != g.NumNodes() {
				return fmt.Errorf("weights for %d nodes, graph has %d", n, g.NumNodes())
			}
			sawHeader = true
			return nil
		}
		if len(f) != 3 {
			return fmt.Errorf("expected 'from to p', got %q", strings.Join(f, " "))
		}
		u, err := strconv.ParseInt(f[0], 10, 32)
		if err != nil {
			return fmt.Errorf("bad from: %w", err)
		}
		v, err := strconv.ParseInt(f[1], 10, 32)
		if err != nil {
			return fmt.Errorf("bad to: %w", err)
		}
		p, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return fmt.Errorf("bad probability: %w", err)
		}
		return ws.Set(graph.NodeID(u), graph.NodeID(v), p)
	})
	switch {
	case err != nil:
		return nil, err
	case !sawHeader:
		return nil, fmt.Errorf("cascade: empty weights input")
	}
	return ws, nil
}
