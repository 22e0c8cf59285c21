package graph

import "math/rand/v2"

// This file provides classic random-graph generators beyond the
// preferential-attachment model in internal/datagen. They are used by
// robustness experiments and tests to check that the system's behaviour is
// not an artifact of one graph topology.

// ErdosRenyi samples a directed G(n, p) graph: every ordered pair (u,v),
// u != v, is an edge independently with probability p.
func ErdosRenyi(n int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	if p <= 0 {
		return b.Build()
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				_ = b.AddEdge(NodeID(u), NodeID(v))
			}
		}
	}
	return b.Build()
}

// WattsStrogatz builds a directed small-world graph: a ring lattice where
// each node points at its k nearest clockwise neighbors, with each edge
// rewired to a uniform random target with probability beta.
func WattsStrogatz(n, k int, beta float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	if n < 2 {
		return b.Build()
	}
	if k >= n {
		k = n - 1
	}
	for u := 0; u < n; u++ {
		for d := 1; d <= k; d++ {
			v := (u + d) % n
			if rng.Float64() < beta {
				for tries := 0; tries < 16; tries++ {
					cand := rng.IntN(n)
					if cand != u {
						v = cand
						break
					}
				}
			}
			if v != u {
				_ = b.AddEdge(NodeID(u), NodeID(v))
			}
		}
	}
	return b.Build()
}
