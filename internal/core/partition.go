package core

import (
	"fmt"
	"sort"

	"credist/internal/graph"
)

// This file implements horizontal partitioning of the engine by
// influencer-row range. A partition engine is a full Engine restricted to
// the UC rows of influencers in [partLo, partHi): it keeps the complete
// global per-user state (au, actionsOf), so Gain(x) evaluated on the
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
// range (heap shards share the row cell storage; mapped shards stay
// zero-copy windows into the snapshot file), while the global per-user
// state is shared in full. Slicing an engine that is already a partition,
// or an out-of-bounds range, is an error.
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
		uc:          make([]rowStore, len(e.uc)),
		lambda:      e.lambda,
		credit:      e.credit,
		workers:     e.workers,
		baseActions: len(e.uc),
		partitioned: true,
		partLo:      lo,
		partHi:      hi,
	}
	for a, st := range e.uc {
		sub, n := sliceShard(st, int32(lo), int32(hi))
		p.uc[a] = sub
		p.entries += n
	}
	return p, nil
}

// sliceShard restricts one shard to the influencer rows in [lo, hi),
// returning the sub-shard and its entry count. Heap shards share the row
// cell slices of the source; mapped shards stay windows into the mapping,
// with the directory and contiguous cell region sub-sliced in place.
func sliceShard(st rowStore, lo, hi int32) (rowStore, int64) {
	switch s := st.(type) {
	case *ucAction:
		ri0, ri1 := rowIndexRange(st, lo, hi)
		sub := &ucAction{
			rowKey: s.rowKey[ri0:ri1:ri1],
			rows:   s.rows[ri0:ri1:ri1],
		}
		return sub, sub.entryCount()
	case *mappedShard:
		ri0, ri1 := rowIndexRange(st, lo, hi)
		sub := &mappedShard{numUsers: s.numUsers}
		if ri0 < ri1 {
			sub.dir = s.dir[ri0:ri1:ri1]
			sub.first = sub.dir[0].off
			entStart := (sub.dir[0].off - s.first) / 16
			last := sub.dir[len(sub.dir)-1]
			entEnd := (last.off-s.first)/16 + uint64(last.count)
			sub.entries = s.entries[entStart:entEnd:entEnd]
			sub.bytes = int64(len(sub.dir))*16 + int64(len(sub.entries))*16
		}
		return sub, int64(len(sub.entries))
	default:
		panic(fmt.Sprintf("core: sliceShard: unknown row store %T", st))
	}
}

// rowIndexRange returns the half-open row-directory index range holding
// the influencer ids in [lo, hi); rowKeyAt ascends, so both bounds are
// binary searches.
func rowIndexRange(st rowStore, lo, hi int32) (int, int) {
	n := st.numRows()
	ri0 := sort.Search(n, func(i int) bool { return st.rowKeyAt(i) >= lo })
	ri1 := ri0 + sort.Search(n-ri0, func(i int) bool { return st.rowKeyAt(ri0+i) >= hi })
	return ri0, ri1
}

// filterShardToPartition restricts a freshly scanned heap shard to the
// engine's row range, returning the filtered shard and its entry count —
// the ingest-routing step: of the rows a tail scan produces, a partition
// keeps exactly the ones it owns. Unpartitioned engines keep the shard
// as-is.
func (e *Engine) filterShardToPartition(ua *ucAction) (*ucAction, int64) {
	if !e.partitioned {
		return ua, ua.entryCount()
	}
	ri0, ri1 := rowIndexRange(ua, int32(e.partLo), int32(e.partHi))
	// The scan carved all rows from one array; copying the kept rows out,
	// carved the same way, lets the rows of other partitions be freed.
	sub := &ucAction{rowKey: make([]int32, ri1-ri0), rows: make([][]ucEntry, ri1-ri0)}
	copy(sub.rowKey, ua.rowKey[ri0:ri1])
	var n int
	for _, row := range ua.rows[ri0:ri1] {
		n += len(row)
	}
	back := make([]ucEntry, 0, n)
	for i, row := range ua.rows[ri0:ri1] {
		start := len(back)
		back = append(back, row...)
		sub.rows[i] = back[start:len(back):len(back)]
	}
	return sub, int64(n)
}
