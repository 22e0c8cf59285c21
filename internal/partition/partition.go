// Package partition holds the row-range bookkeeping behind a partitioned
// credist.Planner: splitting the user universe into ranges, checking that
// a set of snapshot slices tiles it, extending the ranges over users an
// ingest registers, and per-range accounting.
//
// A partition is nothing but a range [lo, hi) of influencer rows of the
// one core.Engine a planner holds. That split follows the additive
// structure of the model: every quantity the serving layer reports —
// marginal gain (Theorem 3), spread, entry counts — is a sum over UC
// cells, and each cell (v, u, a) lies in exactly one range, the one
// holding influencer v's row, while Theorem 3 prices a candidate from its
// own rows plus the global normalizers. So queries need nothing from this
// package: they answer from the engine, identically at every partition
// count.
package partition

import (
	"fmt"
	"sort"

	"credist/internal/core"
)

// Range is a half-open influencer-row range [Lo, Hi).
type Range struct {
	Lo, Hi int
}

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

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

// StatsOf returns the accounting row of each range of e, in order: the
// entries and heap/mapped bytes of the range's rows (core.Engine's
// RowFootprint), which over ranges tiling the universe sum to e's totals.
func StatsOf(e *core.Engine, ranges []Range) []Stats {
	out := make([]Stats, len(ranges))
	for i, r := range ranges {
		entries, heap, mapped := e.RowFootprint(r.Lo, r.Hi)
		out[i] = Stats{Range: r, Entries: entries, HeapBytes: heap, MappedBytes: mapped, RowStore: e.RowStoreBackend()}
	}
	return out
}

// Extend returns a copy of ranges, which tile a smaller universe, tiling
// [0, numUsers): rows of users an appended log tail registered belong to
// the trailing range, so the ranges stay contiguous and no row moves.
func Extend(ranges []Range, numUsers int) []Range {
	out := append([]Range(nil), ranges...)
	out[len(out)-1].Hi = numUsers
	return out
}
