// Package graph provides the directed social-graph substrate used by the
// credit-distribution influence-maximization system: a compact CSR-style
// adjacency representation, a builder that maps arbitrary user identifiers
// to dense node ids, and graph analytics (PageRank, components, community
// extraction) needed by the paper's experimental protocol.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// NodeID is a dense node index in [0, NumNodes).
type NodeID = int32

// Edge is a directed edge From -> To, meaning From may influence To.
type Edge struct {
	From NodeID
	To   NodeID
}

// Graph is an immutable directed graph in compressed sparse row form.
// Both out-adjacency (successors) and in-adjacency (predecessors) are
// materialized because influence maximization walks edges in both
// directions: cascades flow forward, credit flows backward.
type Graph struct {
	n        int32
	outIndex []int32 // len n+1
	outEdges []NodeID
	inIndex  []int32 // len n+1
	inEdges  []NodeID
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return int(g.n) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.outEdges) }

// OutDegree returns the number of successors of u.
func (g *Graph) OutDegree(u NodeID) int {
	return int(g.outIndex[u+1] - g.outIndex[u])
}

// InDegree returns the number of predecessors of u.
func (g *Graph) InDegree(u NodeID) int {
	return int(g.inIndex[u+1] - g.inIndex[u])
}

// Degree returns the total (in + out) degree of u.
func (g *Graph) Degree(u NodeID) int { return g.OutDegree(u) + g.InDegree(u) }

// Out returns the successors of u. The returned slice aliases internal
// storage and must not be modified.
func (g *Graph) Out(u NodeID) []NodeID {
	return g.outEdges[g.outIndex[u]:g.outIndex[u+1]]
}

// In returns the predecessors of u. The returned slice aliases internal
// storage and must not be modified.
func (g *Graph) In(u NodeID) []NodeID {
	return g.inEdges[g.inIndex[u]:g.inIndex[u+1]]
}

// HasEdge reports whether the edge u->v exists.
func (g *Graph) HasEdge(u, v NodeID) bool { return g.EdgeIndex(u, v) >= 0 }

// EdgeIndex returns the position of edge u->v in from-major order (its
// index in Edges()), or -1 if there is no such edge. Adjacency lists are
// sorted, so this is a binary search.
func (g *Graph) EdgeIndex(u, v NodeID) int {
	if i, ok := slices.BinarySearch(g.Out(u), v); ok {
		return int(g.outIndex[u]) + i
	}
	return -1
}

// Edges returns all edges in from-major order. It allocates a fresh slice.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, len(g.outEdges))
	for u := int32(0); u < g.n; u++ {
		for _, v := range g.Out(u) {
			edges = append(edges, Edge{From: u, To: v})
		}
	}
	return edges
}

// AvgDegree returns the average out-degree (edges per node), the statistic
// reported in Table 1 of the paper.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(len(g.outEdges)) / float64(g.n)
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges are coalesced; self-loops are rejected because a user does not
// influence itself in any of the paper's models.
type Builder struct {
	n     int32
	edges []Edge
}

// NewBuilder returns a Builder for a graph with n nodes (ids 0..n-1).
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	if n > math.MaxInt32 {
		panic("graph: node count exceeds the int32 node ids")
	}
	return &Builder{n: int32(n)}
}

// ErrSelfLoop is returned when an edge from a node to itself is added.
var ErrSelfLoop = errors.New("graph: self-loop rejected")

// AddEdge records the directed edge u->v.
func (b *Builder) AddEdge(u, v NodeID) error {
	if err := checkEdge(b.n, u, v); err != nil {
		return err
	}
	b.edges = append(b.edges, Edge{From: u, To: v})
	return nil
}

// checkEdge is AddEdge's rule for an edge u->v of an n-node graph.
func checkEdge(n int32, u, v NodeID) error {
	if u == v {
		return ErrSelfLoop
	}
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	return nil
}

// AddUndirected records both u->v and v->u, the convention the paper uses
// when a social tie is symmetric (e.g. friendship in Flixster).
func (b *Builder) AddUndirected(u, v NodeID) error {
	if err := b.AddEdge(u, v); err != nil {
		return err
	}
	return b.AddEdge(v, u)
}

// Build produces the immutable Graph. The builder may be reused afterwards;
// it retains its accumulated edges.
func (b *Builder) Build() *Graph {
	return build(b.n, slices.Clone(b.edges))
}

// build lays out an n-node graph from edges, which it sorts and
// deduplicates in place.
func build(n int32, edges []Edge) *Graph {
	slices.SortFunc(edges, func(x, y Edge) int { return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To)) })
	edges = slices.Compact(edges)

	// Edges are from-major sorted, so both bucketings keep every
	// adjacency list sorted: successors by To, predecessors by From.
	g := &Graph{n: n}
	g.outIndex, g.outEdges = bucket(n, edges, func(e Edge) (NodeID, NodeID) { return e.From, e.To })
	g.inIndex, g.inEdges = bucket(n, edges, func(e Edge) (NodeID, NodeID) { return e.To, e.From })
	return g
}

// bucket lays edges out in compressed sparse rows: for each edge, key
// returns its row and the node it lists there. Rows keep edge order.
func bucket(n int32, edges []Edge, key func(Edge) (NodeID, NodeID)) ([]int32, []NodeID) {
	index := make([]int32, int(n)+1)
	for _, e := range edges {
		row, _ := key(e)
		index[row+1]++
	}
	for i := int32(0); i < n; i++ {
		index[i+1] += index[i]
	}
	out := make([]NodeID, len(edges))
	next := slices.Clone(index[:n])
	for _, e := range edges {
		row, v := key(e)
		out[next[row]] = v
		next[row]++
	}
	return index, out
}

// Transpose returns the graph with every edge reversed. Graphs are
// immutable, so it shares the receiver's adjacency arrays.
func (g *Graph) Transpose() *Graph {
	return &Graph{n: g.n, outIndex: g.inIndex, outEdges: g.inEdges, inIndex: g.outIndex, inEdges: g.outEdges}
}
