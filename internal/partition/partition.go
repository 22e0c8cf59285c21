// Package partition runs the CD-model engine as a set of self-contained
// row-range partitions behind a scatter-gather Coordinator.
//
// A partition is a core.Engine holding only the UC rows of influencers in
// its range [lo, hi) while carrying the full global per-user state (A_u,
// actionsOf, SC). That split follows the additive structure of the model:
// every quantity the serving layer reports — marginal gain (Theorem 3),
// spread, entry counts — is a sum over UC cells, and each cell (v, u, a)
// belongs to exactly one partition, the one owning influencer v's row. So
// the owner of a candidate's row prices it exactly (no cross-partition
// term exists), and global statistics are plain sums over partitions.
//
// Seed commits are the one cross-cutting operation: Lemma 2 touches cells
// (v, u) for every v with credit over the new seed x, which spans
// partitions. The coordinator has x's owner extract x's credit rows once
// (core.ExtractSeedRow) and broadcasts them (core.CommitSeedRow); each
// partition then applies Lemma 2 to its own disjoint cells and replays
// the identical Lemma 3 arithmetic on its SC replica. Since Engine.Add is
// literally CommitSeedRow(ExtractSeedRow(x)), a scatter-gather commit is
// bit-identical to the single-engine commit, and therefore seeds, gains,
// and spreads are bit-identical at every partition count and worker
// count. That invariant is pinned by TestPartitionCountDeterminism.
//
// Only selections commit to (clones of) the partitions. Spread and gain
// queries commit their seeds to a core.Probe instead, which reads each
// row from its owning partition and replays the same Lemma 2/3
// arithmetic onto private copies of the queried nodes' rows alone, so
// they write nothing shared and still answer bit-identically
// (TestCoordinatorQueriesMatchCloneCommit).
package partition

import (
	"fmt"
	"sort"
	"sync"

	"credist/internal/actionlog"
	"credist/internal/celf"
	"credist/internal/core"
	"credist/internal/graph"
)

// Range is a half-open influencer-row range [Lo, Hi).
type Range struct {
	Lo, Hi int
}

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// Contains reports whether the range owns row x.
func (r Range) Contains(x graph.NodeID) bool { return int(x) >= r.Lo && int(x) < r.Hi }

// SplitRanges tiles [0, numUsers) into n contiguous near-even ranges (the
// first numUsers mod n ranges get the extra row). n is clamped to at
// least 1 and at most numUsers (every partition below numUsers rows wide
// would otherwise be empty-by-construction; numUsers == 0 yields a single
// empty range).
func SplitRanges(numUsers, n int) []Range {
	if n < 1 || numUsers == 0 {
		n = 1
	}
	if n > numUsers && numUsers > 0 {
		n = numUsers
	}
	out := make([]Range, n)
	lo := 0
	for i := range out {
		size := numUsers / n
		if i < numUsers%n {
			size++
		}
		out[i] = Range{Lo: lo, Hi: lo + size}
		lo += size
	}
	return out
}

// ValidateRanges checks that ranges — in any order — tile [0, numUsers)
// exactly: sorted by start they must begin at row 0, end at numUsers, and
// neither overlap nor leave a gap. Violations are reported naming both
// offending ranges, so a mis-assembled slice set is diagnosable from the
// error alone.
func ValidateRanges(ranges []Range, numUsers int) error {
	if len(ranges) == 0 {
		return fmt.Errorf("partition: no row ranges")
	}
	sorted := make([]Range, len(ranges))
	copy(sorted, ranges)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Lo != sorted[j].Lo {
			return sorted[i].Lo < sorted[j].Lo
		}
		return sorted[i].Hi < sorted[j].Hi
	})
	for i, r := range sorted {
		if r.Lo < 0 || r.Lo > r.Hi || r.Hi > numUsers {
			return fmt.Errorf("partition: range %v outside the universe [0,%d)", r, numUsers)
		}
		if i == 0 {
			if r.Lo != 0 {
				return fmt.Errorf("partition: rows [0,%d) uncovered: first range is %v", r.Lo, r)
			}
			continue
		}
		prev := sorted[i-1]
		if r.Lo < prev.Hi {
			return fmt.Errorf("partition: range %v overlaps %v", r, prev)
		}
		if r.Lo > prev.Hi {
			return fmt.Errorf("partition: gap between %v and %v leaves rows [%d,%d) uncovered", prev, r, prev.Hi, r.Lo)
		}
	}
	if last := sorted[len(sorted)-1]; last.Hi != numUsers {
		return fmt.Errorf("partition: rows [%d,%d) uncovered: last range is %v", last.Hi, numUsers, last)
	}
	return nil
}

// Stats is the per-partition accounting the serving layer surfaces.
type Stats struct {
	Range       Range
	Entries     int64
	HeapBytes   int64
	MappedBytes int64
	RowStore    string
}

// Coordinator fans queries over a contiguous set of engine partitions and
// merges by summation. It is immutable once built (spread and gain
// queries read the partitions through a core.Probe, selections clone
// them), so concurrent queries need no locking; ingest builds a successor
// via Append.
type Coordinator struct {
	parts    []*core.Engine // sorted by row-range start
	ranges   []Range        // parts[i] owns ranges[i]
	workers  int            // query fan-out; 0 means GOMAXPROCS via celf
	numUsers int
}

// New validates that the engines are row-range partitions tiling the
// universe — every engine partitioned, agreeing on universe size and
// action count, ranges contiguous from 0 to numUsers — and returns the
// coordinator over them. A single full (unpartitioned) engine is also
// accepted: it is partition trivially, covering every row. workers
// bounds per-query parallelism; it has no effect on results.
func New(engines []*core.Engine, workers int) (*Coordinator, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("partition: no engines")
	}
	parts := make([]*core.Engine, len(engines))
	copy(parts, engines)
	sort.SliceStable(parts, func(i, j int) bool {
		li, _ := parts[i].PartitionRange()
		lj, _ := parts[j].PartitionRange()
		return li < lj
	})
	numUsers := parts[0].NumNodes()
	numActions := parts[0].NumActions()
	ranges := make([]Range, len(parts))
	for i, p := range parts {
		if p.NumNodes() != numUsers {
			return nil, fmt.Errorf("partition: engine %d spans a %d-user universe, engine 0 spans %d", i, p.NumNodes(), numUsers)
		}
		if p.NumActions() != numActions {
			return nil, fmt.Errorf("partition: engine %d has %d actions, engine 0 has %d", i, p.NumActions(), numActions)
		}
		if len(parts) > 1 && !p.IsPartition() {
			lo, hi := p.PartitionRange()
			return nil, fmt.Errorf("partition: engine %d is a full model claiming rows %v; cannot mix it with partitions", i, Range{lo, hi})
		}
		lo, hi := p.PartitionRange()
		ranges[i] = Range{Lo: lo, Hi: hi}
	}
	if err := ValidateRanges(ranges, numUsers); err != nil {
		return nil, err
	}
	return &Coordinator{parts: parts, ranges: ranges, workers: workers, numUsers: numUsers}, nil
}

// NumPartitions returns how many partitions the coordinator fans over.
func (c *Coordinator) NumPartitions() int { return len(c.parts) }

// NumUsers returns the (global) user-universe size.
func (c *Coordinator) NumUsers() int { return c.numUsers }

// NumActions returns the (global) scanned action count.
func (c *Coordinator) NumActions() int { return c.parts[0].NumActions() }

// Ranges returns the per-partition row ranges in partition order.
func (c *Coordinator) Ranges() []Range {
	out := make([]Range, len(c.ranges))
	copy(out, c.ranges)
	return out
}

// Engines returns the underlying partitions in partition order. Callers
// must not mutate them; clone first.
func (c *Coordinator) Engines() []*core.Engine { return c.parts }

// Stats returns per-partition accounting in partition order.
func (c *Coordinator) Stats() []Stats {
	out := make([]Stats, len(c.parts))
	for i, p := range c.parts {
		out[i] = Stats{
			Range:       c.ranges[i],
			Entries:     p.Entries(),
			HeapBytes:   p.HeapBytes(),
			MappedBytes: p.MappedBytes(),
			RowStore:    p.RowStoreBackend(),
		}
	}
	return out
}

// clone deep-copies every partition for a mutating query, wrapped as a
// PartitionedEstimator carrying the coordinator's worker budget.
func (c *Coordinator) cloneEstimator() *celf.PartitionedEstimator {
	clones := make([]celf.Partition, len(c.parts))
	var wg sync.WaitGroup
	for i, p := range c.parts {
		wg.Add(1)
		go func(i int, p *core.Engine) {
			defer wg.Done()
			clones[i] = p.Clone()
		}(i, p)
	}
	wg.Wait()
	pe, err := celf.NewPartitionedEstimator(clones, c.workers)
	if err != nil {
		// New validated the ranges and Clone preserves them.
		panic(fmt.Sprintf("partition: clone broke the range cover: %v", err))
	}
	return pe
}

// checkNode rejects the first id outside the universe before it reaches
// a partition (where a routing miss is a panic, not an error).
func (c *Coordinator) checkNode(kind string, ids ...graph.NodeID) error {
	for _, x := range ids {
		if int(x) < 0 || int(x) >= c.numUsers {
			return fmt.Errorf("partition: %s %d outside the universe [0,%d)", kind, x, c.numUsers)
		}
	}
	return nil
}

// Spread computes sigma_cd(S) as the telescoped sum of marginal gains:
// per seed in input order, its exact gain from a read-only probe over the
// partitions (each row read from its owner), then its commit to the
// probe. Duplicate seeds contribute 0, matching the reference evaluator's
// dedup. The result is the mathematically exact CD spread of the
// committed set and is bit-identical across partition counts, worker
// counts, and row-store backends — though not bit-identical to
// core.Evaluator.Spread, which sums the same quantity in per-action order.
func (c *Coordinator) Spread(seeds []graph.NodeID) (float64, error) {
	return c.SpreadObj(seeds, nil, nil)
}

// Gains evaluates the marginal gain of every candidate against the given
// base seed set: the base seeds are committed to a read-only probe over
// the partitions, then the candidate evaluations fan over the partitions
// — each candidate's rows read from its owner, results written by
// candidate index so worker scheduling cannot reorder them. A candidate
// that is a base seed gains 0, as in the single-engine path. No partition
// is cloned, written or promoted.
func (c *Coordinator) Gains(base []graph.NodeID, candidates []graph.NodeID) ([]float64, error) {
	return c.GainsObj(base, candidates, nil, nil)
}

// NewSelection starts a CELF seed selection over fresh clones of the
// partitions: the coordinator-side lazy-forward heap with a per-partition
// parallel first-iteration pass (celf fans buildHeap over workers, each
// Gain routed to its owner). Selections from the same coordinator are
// independent and bit-identical to a single-engine selection.
func (c *Coordinator) NewSelection(opts celf.Options) *celf.Selection {
	if opts.Workers == 0 {
		opts.Workers = c.workers
	}
	return celf.NewSelection(c.cloneEstimator(), opts)
}

// ResumeSelection continues a selection from a checkpointed seed prefix,
// recommitting the prefix seeds scatter-gather and adopting the
// checkpointed heap. Equivalent to celf.Resume on a single engine.
func (c *Coordinator) ResumeSelection(prefix celf.Prefix, opts celf.Options) (*celf.Selection, error) {
	if opts.Workers == 0 {
		opts.Workers = c.workers
	}
	return celf.Resume(c.cloneEstimator(), prefix, opts)
}

// Append builds a successor coordinator covering the combined log: each
// partition clones and appends the tail independently (AppendActions
// routes the scanned rows to their owners, and the trailing partition
// absorbs rows of users the tail registered). The receiver is untouched,
// so in-flight queries keep their answers while the successor assembles.
func (c *Coordinator) Append(g *graph.Graph, log *actionlog.Log, from actionlog.ActionID) (*Coordinator, error) {
	next := make([]*core.Engine, len(c.parts))
	errs := make([]error, len(c.parts))
	var wg sync.WaitGroup
	for i, p := range c.parts {
		wg.Add(1)
		go func(i int, p *core.Engine) {
			defer wg.Done()
			clone := p.Clone()
			if err := clone.AppendActions(g, log, from); err != nil {
				errs[i] = fmt.Errorf("partition %v: %w", c.ranges[i], err)
				return
			}
			clone.Freeze()
			next[i] = clone
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return New(next, c.workers)
}
