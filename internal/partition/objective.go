package partition

import (
	"sync"

	"credist/internal/celf"
	"credist/internal/core"
	"credist/internal/graph"
)

// objPartition wraps an engine partition so the scatter-gather estimator
// prices candidates under an objective. Only Gain changes: commits
// (ExtractSeedRow/CommitSeedRow) are objective-independent — the
// objective reweights how credit is valued, never how it flows — so the
// whole partitioned commit path is reused verbatim, and with it the
// bit-identity of non-default objectives across partition counts.
type objPartition struct {
	*core.Engine
	obj *core.Objective
}

func (p objPartition) Gain(x graph.NodeID) float64 { return p.Engine.GainObj(x, p.obj) }

// cloneEstimatorObj is cloneEstimator with every clone wrapped to price
// gains under obj. The default objective short-circuits to the plain
// estimator: bit-identity for the default comes from taking the exact
// pre-objective code path.
func (c *Coordinator) cloneEstimatorObj(obj *core.Objective) *celf.PartitionedEstimator {
	if obj.IsDefault() {
		return c.cloneEstimator()
	}
	clones := make([]celf.Partition, len(c.parts))
	var wg sync.WaitGroup
	for i, p := range c.parts {
		wg.Add(1)
		go func(i int, p *core.Engine) {
			defer wg.Done()
			clones[i] = objPartition{Engine: p.Clone(), obj: obj}
		}(i, p)
	}
	wg.Wait()
	pe, err := celf.NewPartitionedEstimator(clones, c.workers)
	if err != nil {
		// New validated the ranges and Clone preserves them.
		panic("partition: clone broke the range cover: " + err.Error())
	}
	return pe
}

// commitSet commits every distinct node in set to the estimator,
// discarding gains. Used to pre-commit a rival's seed set so subsequent
// gains are marginal over it.
func commitSet(pe *celf.PartitionedEstimator, set []graph.NodeID) {
	seen := make(map[graph.NodeID]bool, len(set))
	for _, s := range set {
		if seen[s] {
			continue
		}
		seen[s] = true
		pe.Add(s)
	}
}

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
// rivals in opts are pre-committed to the cloned estimator — so every
// gain the selection sees is marginal over the rival set — and celf
// additionally excludes them from the candidate pool. The default
// objective (with no costs, budget, or rivals) is exactly NewSelection.
func (c *Coordinator) NewSelectionObj(obj *core.Objective, opts celf.Options) *celf.Selection {
	if opts.Workers == 0 {
		opts.Workers = c.workers
	}
	pe := c.cloneEstimatorObj(obj)
	commitSet(pe, opts.Blocked)
	return celf.NewSelection(pe, opts)
}

// SelectObj runs a complete CELF selection under an objective via
// celf.Run — including the budgeted best-affordable-singleton rule,
// which Grow-style selections do not apply — over fresh wrapped clones,
// with blocked rivals pre-committed. Single-engine and partitioned
// objective selections are bit-identical because both are celf.Run over
// estimators returning bit-identical gains.
func (c *Coordinator) SelectObj(obj *core.Objective, k int, opts celf.Options) celf.Result {
	if opts.Workers == 0 {
		opts.Workers = c.workers
	}
	pe := c.cloneEstimatorObj(obj)
	commitSet(pe, opts.Blocked)
	return celf.Run(pe, k, opts)
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
