package core

import (
	"fmt"

	"credist/internal/graph"
)

// This file implements horizontal partitioning of the engine by
// influencer-row range. A partition engine is a full Engine restricted to
// the UC rows of influencers in [partLo, partHi): it keeps the complete
// global per-user state (au, actionsOf), so a gain of x priced on the
// partition owning x's row is exactly the global marginal gain — Theorem
// 3 reads only x's row and the global normalizers. Seeds are committed to
// a Probe over the whole partition set, which reads every row from its
// owner, so answers are bit-identical at any partition count.

// ownsRow reports whether this engine holds x's influencer row: always
// for an unpartitioned engine, range membership for a partition.
func (e *Engine) ownsRow(x graph.NodeID) bool {
	return !e.partitioned || (int(x) >= e.partLo && int(x) < e.partHi)
}

// IsPartition reports whether the engine is a row-range partition (built
// by Slice or loaded from a version-4 snapshot slice) rather than a full
// model.
func (e *Engine) IsPartition() bool { return e.partitioned }

// PartitionRange returns the influencer-row range [lo, hi) this engine
// holds; a full engine covers the whole universe [0, NumNodes()).
func (e *Engine) PartitionRange() (lo, hi int) {
	if e.partitioned {
		return e.partLo, e.partHi
	}
	return 0, e.numUsers
}

// Slice returns a self-contained partition engine holding only the UC
// rows of influencers in [lo, hi): every shard is restricted to that row
// range as a window sharing the source's directory and cells (mapped
// shards stay zero-copy windows into the snapshot file), while the global
// per-user state is shared in full. Slicing an engine that is already a
// partition, or an out-of-bounds range, is an error.
func (e *Engine) Slice(lo, hi int) (*Engine, error) {
	if e.partitioned {
		return nil, fmt.Errorf("core: cannot slice a partition engine (rows [%d,%d)); slice the full engine instead", e.partLo, e.partHi)
	}
	if lo < 0 || lo > hi || hi > e.numUsers {
		return nil, fmt.Errorf("core: slice rows [%d,%d) outside the universe [0,%d)", lo, hi, e.numUsers)
	}
	p := &Engine{
		numUsers:    e.numUsers,
		au:          e.au,
		actionsOf:   e.actionsOf,
		uc:          make([]*shard, len(e.uc)),
		lambda:      e.lambda,
		credit:      e.credit,
		workers:     e.workers,
		partitioned: true,
		partLo:      lo,
		partHi:      hi,
	}
	for a, s := range e.uc {
		p.uc[a] = s.slice(int32(lo), int32(hi))
		p.entries += p.uc[a].entryCount()
	}
	return p, nil
}

// filterShardToPartition restricts a freshly scanned shard to the
// engine's row range — the ingest-routing step: of the rows a tail scan
// produces, a partition keeps exactly the ones it owns. The kept rows are
// copied out so the rows of other partitions can be freed. Unpartitioned
// engines keep the shard as-is.
func (e *Engine) filterShardToPartition(s *shard) *shard {
	if !e.partitioned {
		return s
	}
	sub := s.slice(int32(e.partLo), int32(e.partHi))
	kept := &shard{dir: make([]mdirEntry, len(sub.dir)), cells: make([]ucEntry, len(sub.cells)), first: sub.first}
	copy(kept.dir, sub.dir)
	copy(kept.cells, sub.cells)
	return kept
}
