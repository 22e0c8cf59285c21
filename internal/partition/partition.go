// Package partition runs the CD-model engine as a set of self-contained
// row-range partitions behind a scatter-gather Coordinator.
//
// A partition is a core.Engine holding only the UC rows of influencers in
// its range [lo, hi) while carrying the full global per-user state (A_u,
// actionsOf). That split follows the additive structure of the model:
// every quantity the serving layer reports — marginal gain (Theorem 3),
// spread, entry counts — is a sum over UC cells, and each cell (v, u, a)
// belongs to exactly one partition, the one owning influencer v's row. So
// the owner of a candidate's row prices it exactly (no cross-partition
// term exists), and global statistics are plain sums over partitions.
//
// Seed commits are the one cross-cutting operation: Lemma 2 touches cells
// (v, u) for every v with credit over the new seed x, which spans
// partitions. Engines are immutable, so every query — spread, gain and
// CELF selection alike — commits its seeds to a core.Probe, which reads
// each row from its owning partition and replays the Lemma 2/3 arithmetic
// onto private copies of the queried nodes' rows alone. So no query
// writes anything shared, and seeds, gains and spreads are bit-identical
// to a probe over the unpartitioned engine, at every partition count and
// worker count. That invariant is pinned by
// TestPartitionCountDeterminism and TestCoordinatorQueriesMatchCloneCommit.
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
// merges by summation. It is immutable once built (spread, gain and
// selection queries all read the partitions through a core.Probe), so
// concurrent queries need no locking; ingest builds a successor via
// Append.
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

// Engines returns the underlying partitions in partition order.
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

// Spread computes the conditional objective spread
// sigma_obj(S | R) = sigma_obj(R+S) - sigma_obj(R) for rival set R
// (blocked) as the telescoped sum of marginal gains: the rivals are
// committed to a read-only probe over the partitions without counting
// their gains, then per seed in input order its objective gain (rows read
// from the owner) and its commit. A nil obj is the default objective, and
// with no rivals the result is plain sigma_cd. Duplicate seeds contribute
// 0, matching the reference evaluator's dedup. The result is bit-identical
// across partition counts, worker counts, and row-store backends. It is
// the spread of the engines' lambda-truncated credit model: at lambda > 0
// every UC cell below lambda is dropped, so it reads below
// core.Evaluator.Spread's exact sigma_cd (0.15% on average at
// lambda = 0.001 on the flixster-small preset). Only at lambda = 0 do the
// two agree, and then only to float tolerance, since the evaluator sums
// per action instead of per seed.
func (c *Coordinator) Spread(seeds []graph.NodeID, obj *core.Objective, blocked []graph.NodeID) (float64, error) {
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

// Gains evaluates the marginal objective gain of every candidate against
// the given base seed set: blocked rivals then base seeds are committed to
// a read-only probe over the partitions, then the candidate evaluations
// fan over the partitions — each candidate's rows read from its owner,
// results written by candidate index so worker scheduling cannot reorder
// them. A nil obj is the default objective. A candidate that is a base
// seed gains 0, as in the single-engine path. No partition is written.
func (c *Coordinator) Gains(base, candidates []graph.NodeID, obj *core.Objective, blocked []graph.NodeID) ([]float64, error) {
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

// NewSelection starts a CELF seed selection over a read-only probe of
// the partitions (core.ProbeEstimator): the coordinator-side lazy-forward
// heap with a parallel first-iteration pass (celf fans buildHeap over
// workers, each Gain reading its candidate's rows from the owner), and
// seed commits that replay onto the re-priced rows only. No partition is
// written, so selections from the same coordinator are independent and
// bit-identical to a single-engine selection.
func (c *Coordinator) NewSelection(opts celf.Options) *celf.Selection {
	return celf.NewSelection(c.estimator(nil, nil), c.withWorkers(opts))
}

// ResumeSelection continues a selection from a checkpointed seed prefix,
// committing the prefix seeds to a fresh probe and adopting the
// checkpointed gains. Equivalent to celf.Resume on a single engine.
func (c *Coordinator) ResumeSelection(prefix celf.Prefix, opts celf.Options) (*celf.Selection, error) {
	return celf.Resume(c.estimator(nil, nil), prefix, c.withWorkers(opts))
}

// Select runs a complete one-shot CELF selection under an objective via
// celf.Run — including the budgeted best-affordable-singleton rule, which
// Grow-style selections do not apply — over a probe of the partitions
// with the blocked rivals in opts committed first, so every gain is
// marginal over them (celf also excludes them from the pool). A nil obj
// is the default objective. Single-engine and partitioned selections are
// bit-identical because both are celf.Run over probes returning
// bit-identical gains.
func (c *Coordinator) Select(obj *core.Objective, k int, opts celf.Options) celf.Result {
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

// withWorkers defaults the selection fan-out to the coordinator's.
func (c *Coordinator) withWorkers(opts celf.Options) celf.Options {
	if opts.Workers == 0 {
		opts.Workers = c.workers
	}
	return opts
}

// Append builds a successor coordinator covering the combined log: each
// partition appends the tail independently into a successor engine that
// shares its shards (AppendActions routes the scanned rows to their
// owners, and the trailing partition absorbs rows of users the tail
// registered). The receiver is untouched, so in-flight queries keep their
// answers while the successor assembles.
func (c *Coordinator) Append(g *graph.Graph, log *actionlog.Log, from actionlog.ActionID) (*Coordinator, error) {
	next := make([]*core.Engine, len(c.parts))
	errs := make([]error, len(c.parts))
	var wg sync.WaitGroup
	for i, p := range c.parts {
		wg.Add(1)
		go func(i int, p *core.Engine) {
			defer wg.Done()
			var err error
			if next[i], err = p.AppendActions(g, log, from); err != nil {
				errs[i] = fmt.Errorf("partition %v: %w", c.ranges[i], err)
			}
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
