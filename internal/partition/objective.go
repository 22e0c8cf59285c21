package partition

import (
	"sync"

	"credist/internal/celf"
	"credist/internal/core"
	"credist/internal/graph"
)

// probe returns a read-only probe over the partitions with each node of
// the sets committed in order (repeats are no-ops).
func (c *Coordinator) probe(sets ...[]graph.NodeID) *core.Probe {
	pr := core.NewProbe(c.parts...)
	for _, set := range sets {
		for _, s := range set {
			pr.Commit(s, nil)
		}
	}
	return pr
}

// SpreadObj computes the conditional objective spread
// sigma_obj(S | R) = sigma_obj(R+S) - sigma_obj(R) for rival set R
// (blocked): the rivals are committed to a read-only probe without
// counting their gains, then the seeds' objective gains telescope in
// input order. A nil obj is the default objective.
func (c *Coordinator) SpreadObj(seeds []graph.NodeID, obj *core.Objective, blocked []graph.NodeID) (float64, error) {
	if err := c.checkNode("seed", seeds...); err != nil {
		return 0, err
	}
	if err := c.checkNode("blocked node", blocked...); err != nil {
		return 0, err
	}
	pr := c.probe(blocked)
	total := 0.0
	for _, s := range seeds {
		total += pr.Commit(s, obj)
	}
	return total, nil
}

// GainsObj is Gains under an objective: blocked rivals then base seeds
// are committed to a read-only probe, and candidate evaluations fan over
// the partitions with by-index writes. A nil obj is the default
// objective.
func (c *Coordinator) GainsObj(base, candidates []graph.NodeID, obj *core.Objective, blocked []graph.NodeID) ([]float64, error) {
	if err := c.checkNode("seed", base...); err != nil {
		return nil, err
	}
	if err := c.checkNode("candidate", candidates...); err != nil {
		return nil, err
	}
	if err := c.checkNode("blocked node", blocked...); err != nil {
		return nil, err
	}
	pr := c.probe(blocked, base)
	out := make([]float64, len(candidates))
	// Group by owning partition so each partition's candidates evaluate on
	// one goroutine: the probe is read-only once committed, and by-index
	// writes keep the output order fixed.
	groups := make([][]int, len(c.parts))
	for i, x := range candidates {
		pi := ownerIndex(c.ranges, x)
		groups[pi] = append(groups[pi], i)
	}
	var wg sync.WaitGroup
	for _, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			for _, i := range idxs {
				out[i] = pr.Gain(candidates[i], obj)
			}
		}(idxs)
	}
	wg.Wait()
	return out, nil
}

// NewSelectionObj starts a CELF selection under an objective. Blocked
// rivals in opts are committed to the selection's probe first — so every
// gain the selection sees is marginal over the rival set — and celf
// additionally excludes them from the candidate pool. The default
// objective (with no costs, budget, or rivals) is exactly NewSelection.
func (c *Coordinator) NewSelectionObj(obj *core.Objective, opts celf.Options) *celf.Selection {
	return celf.NewSelection(c.estimator(obj, opts.Blocked), c.withWorkers(opts))
}

// SelectObj runs a complete CELF selection under an objective via
// celf.Run — including the budgeted best-affordable-singleton rule,
// which Grow-style selections do not apply — over a probe of the
// partitions with blocked rivals committed first. Single-engine and
// partitioned objective selections are bit-identical because both are
// celf.Run over probes returning bit-identical gains.
func (c *Coordinator) SelectObj(obj *core.Objective, k int, opts celf.Options) celf.Result {
	return celf.Run(c.estimator(obj, opts.Blocked), k, c.withWorkers(opts))
}

// estimator returns a probe estimator over the partitions pricing gains
// under obj, with the blocked rivals committed in order.
func (c *Coordinator) estimator(obj *core.Objective, blocked []graph.NodeID) *core.ProbeEstimator {
	est := core.NewProbeEstimator(obj, c.parts...)
	for _, s := range blocked {
		est.Add(s)
	}
	return est
}

// ownerIndex returns the index of the range owning row x.
func ownerIndex(ranges []Range, x graph.NodeID) int {
	lo, hi := 0, len(ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		if ranges[mid].Hi > int(x) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
