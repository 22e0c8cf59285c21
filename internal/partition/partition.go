// Package partition holds the row-range bookkeeping behind a partitioned
// credist.Planner: splitting the user universe into ranges, checking that
// a set of engine partitions tiles it, per-partition accounting, and the
// parallel append of a log tail to every partition.
//
// A partition is a core.Engine holding only the UC rows of influencers in
// its range [lo, hi) while carrying the full global per-user state (A_u,
// actionsOf). That split follows the additive structure of the model:
// every quantity the serving layer reports — marginal gain (Theorem 3),
// spread, entry counts — is a sum over UC cells, and each cell (v, u, a)
// belongs to exactly one partition, the one owning influencer v's row. So
// a core.Probe over the partitions, which reads every row from its owner,
// answers every query exactly as a probe over the unpartitioned engine
// does: queries need nothing from this package beyond a tiled engine set.
package partition

import (
	"fmt"
	"sort"
	"sync"

	"credist/internal/actionlog"
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

// Tile validates that engines are row-range partitions tiling the
// universe — every engine partitioned, agreeing on universe size and
// action count, ranges contiguous from 0 to the universe size — and
// returns them sorted by range start. A single full (unpartitioned)
// engine is also accepted: it is partition trivially, covering every row.
func Tile(engines []*core.Engine) ([]*core.Engine, error) {
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
	for i, p := range parts {
		if p.NumNodes() != numUsers {
			return nil, fmt.Errorf("partition: engine %d spans a %d-user universe, engine 0 spans %d", i, p.NumNodes(), numUsers)
		}
		if p.NumActions() != numActions {
			return nil, fmt.Errorf("partition: engine %d has %d actions, engine 0 has %d", i, p.NumActions(), numActions)
		}
		if len(parts) > 1 && !p.IsPartition() {
			return nil, fmt.Errorf("partition: engine %d is a full model claiming rows %v; cannot mix it with partitions", i, rangeOf(p))
		}
	}
	if err := ValidateRanges(Ranges(parts), numUsers); err != nil {
		return nil, err
	}
	return parts, nil
}

// rangeOf returns the row range engine e holds.
func rangeOf(e *core.Engine) Range {
	lo, hi := e.PartitionRange()
	return Range{Lo: lo, Hi: hi}
}

// Ranges returns the row range of each engine, in order.
func Ranges(parts []*core.Engine) []Range {
	out := make([]Range, len(parts))
	for i, p := range parts {
		out[i] = rangeOf(p)
	}
	return out
}

// StatsOf returns each engine's accounting row, in order.
func StatsOf(parts []*core.Engine) []Stats {
	out := make([]Stats, len(parts))
	for i, p := range parts {
		out[i] = Stats{
			Range:       rangeOf(p),
			Entries:     p.Entries(),
			HeapBytes:   p.HeapBytes(),
			MappedBytes: p.MappedBytes(),
			RowStore:    p.RowStoreBackend(),
		}
	}
	return out
}

// Append extends a tiled engine set with the tail of a combined log: each
// engine appends the tail independently, in parallel, into a successor
// that shares its shards (AppendActions routes the scanned rows to their
// owners, and the trailing partition absorbs rows of users the tail
// registered). The receivers are untouched, so in-flight queries keep
// their answers while the successors assemble. The result is tiled again.
func Append(parts []*core.Engine, g *graph.Graph, log *actionlog.Log, from actionlog.ActionID) ([]*core.Engine, error) {
	next := make([]*core.Engine, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i int, p *core.Engine) {
			defer wg.Done()
			var err error
			if next[i], err = p.AppendActions(g, log, from); err != nil {
				errs[i] = fmt.Errorf("rows %v: %w", rangeOf(p), err)
			}
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return Tile(next)
}
