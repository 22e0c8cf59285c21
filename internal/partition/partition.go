// Package partition holds the row-range bookkeeping behind a partitioned
// credist.Planner: splitting the user universe into ranges, extending the
// ranges over users an ingest registers, and per-range accounting.
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
	store := e.RowStoreBackend()
	for i, r := range ranges {
		entries, heap, mapped := e.RowFootprint(r.Lo, r.Hi)
		out[i] = Stats{Range: r, Entries: entries, HeapBytes: heap, MappedBytes: mapped, RowStore: store}
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
