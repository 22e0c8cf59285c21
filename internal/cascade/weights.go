// Package cascade implements the classic propagation models the paper
// compares against: the Independent Cascade (IC) and Linear Threshold (LT)
// models of Kempe et al., edge-weight storage aligned with the graph's CSR
// layout, and a parallel Monte-Carlo estimator of expected spread.
package cascade

import (
	"fmt"
	"sort"

	"credist/internal/graph"
)

// Weights assigns a probability (IC) or weight (LT) to every edge of a
// graph. Storage is aligned with the graph's out- and in-adjacency arrays
// so simulators can walk rows without per-edge lookups.
type Weights struct {
	g      *graph.Graph
	out    []float64 // aligned with g's out-edge array
	in     []float64 // aligned with g's in-edge array
	outOff []int32   // len n+1: offset of node u's out row
	inOff  []int32   // len n+1: offset of node u's in row
}

// NewWeights returns zero-initialized weights for g.
func NewWeights(g *graph.Graph) *Weights {
	n := g.NumNodes()
	w := &Weights{
		g:      g,
		out:    make([]float64, g.NumEdges()),
		in:     make([]float64, g.NumEdges()),
		outOff: make([]int32, n+1),
		inOff:  make([]int32, n+1),
	}
	for u := 0; u < n; u++ {
		w.outOff[u+1] = w.outOff[u] + int32(g.OutDegree(graph.NodeID(u)))
		w.inOff[u+1] = w.inOff[u] + int32(g.InDegree(graph.NodeID(u)))
	}
	return w
}

// Graph returns the underlying graph.
func (w *Weights) Graph() *graph.Graph { return w.g }

func (w *Weights) outPos(u, v graph.NodeID) (int32, bool) {
	row := w.g.Out(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	if i == len(row) || row[i] != v {
		return 0, false
	}
	return w.outOff[u] + int32(i), true
}

func (w *Weights) inPos(u, v graph.NodeID) (int32, bool) {
	row := w.g.In(v)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= u })
	if i == len(row) || row[i] != u {
		return 0, false
	}
	return w.inOff[v] + int32(i), true
}

// Set assigns probability p to edge u->v.
func (w *Weights) Set(u, v graph.NodeID, p float64) error {
	if p < 0 || p > 1 {
		return fmt.Errorf("cascade: weight %g out of [0,1] on edge (%d,%d)", p, u, v)
	}
	op, ok := w.outPos(u, v)
	if !ok {
		return fmt.Errorf("cascade: edge (%d,%d) not in graph", u, v)
	}
	ip, _ := w.inPos(u, v)
	w.out[op] = p
	w.in[ip] = p
	return nil
}

// Get returns the probability of edge u->v, or 0 if the edge is absent.
func (w *Weights) Get(u, v graph.NodeID) float64 {
	if op, ok := w.outPos(u, v); ok {
		return w.out[op]
	}
	return 0
}

// OutRow returns the weights aligned with g.Out(u). The slice aliases
// internal storage and must not be modified.
func (w *Weights) OutRow(u graph.NodeID) []float64 {
	return w.out[w.outOff[u]:w.outOff[u+1]]
}

// InRow returns the weights aligned with g.In(u). The slice aliases
// internal storage and must not be modified.
func (w *Weights) InRow(u graph.NodeID) []float64 {
	return w.in[w.inOff[u]:w.inOff[u+1]]
}

// InSum returns the total incoming weight of u, which the LT model
// requires to be at most 1.
func (w *Weights) InSum(u graph.NodeID) float64 {
	sum := 0.0
	for _, p := range w.InRow(u) {
		sum += p
	}
	return sum
}
