package cascade

import (
	"math/rand/v2"

	"credist/internal/graph"
)

// SimulateIC runs one trial of the Independent Cascade model from seeds and
// returns the number of active nodes at quiescence. Each newly activated
// node v gets one shot at each inactive successor u, succeeding with
// probability w(v,u). scratch must be a reusable buffer of length
// g.NumNodes() (values are reset internally via an epoch counter held by
// the caller through ICState); pass nil to allocate per call.
func SimulateIC(w *Weights, seeds []graph.NodeID, rng *rand.Rand, st *ICState) int {
	if st == nil {
		st = NewICState(w.Graph())
	}
	st.epoch++
	g := w.Graph()
	frontier := st.frontier[:0]
	active := 0
	for _, s := range seeds {
		if st.mark[s] == st.epoch {
			continue
		}
		st.mark[s] = st.epoch
		frontier = append(frontier, s)
		active++
	}
	for len(frontier) > 0 {
		next := frontier[:0:0] // fresh slice; old frontier still read below
		for _, v := range frontier {
			out := g.Out(v)
			probs := w.OutRow(v)
			for i, u := range out {
				if st.mark[u] == st.epoch {
					continue
				}
				p := probs[i]
				if p > 0 && rng.Float64() < p {
					st.mark[u] = st.epoch
					next = append(next, u)
					active++
				}
			}
		}
		frontier = next
	}
	st.frontier = frontier[:0]
	return active
}

// ICState is per-goroutine scratch space for IC simulation, avoiding an
// O(n) reset between trials via epoch marking.
type ICState struct {
	mark     []uint32
	epoch    uint32
	frontier []graph.NodeID
}

// NewICState allocates scratch space for simulating over g.
func NewICState(g *graph.Graph) *ICState {
	return &ICState{mark: make([]uint32, g.NumNodes())}
}
