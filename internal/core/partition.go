package core

import (
	"fmt"
	"slices"
	"sort"

	"credist/internal/graph"
)

// This file implements horizontal partitioning of the engine by
// influencer-row range. A partition engine is a full Engine restricted to
// the UC rows of influencers in [partLo, partHi): it keeps the complete
// global per-user state (au, actionsOf) and a complete replica of SC, so
// Gain(x) evaluated on the partition owning x's row is exactly the global
// marginal gain — Theorem 3 reads only x's row, SC[x], and the global
// normalizers. Committing a seed is split into ExtractSeedRow (the owner
// reads out x's row cells) and CommitSeedRow (every partition applies the
// Lemma 2 subtractions to its local rows and the identical Lemma 3 SC
// raise): the Lemma 2 updates touch disjoint (v, u) cells per partition
// and the SC arithmetic is replayed bit-identically everywhere, so the
// union of the partitions after a commit equals the unpartitioned engine
// after Add, cell for cell and bit for bit. Engine.Add is literally
// CommitSeedRow(x, ExtractSeedRow(x)), so the equivalence holds by
// construction rather than by parallel maintenance of two code paths.

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

// seedRowData is the opaque payload behind ExtractSeedRow/CommitSeedRow:
// the committed seed's credit cells, one row per scanned action of the
// seed (parallel to actionsOf[x]), copied out of the owning engine so the
// payload stays valid while every partition applies the commit.
type seedRowData struct {
	rows [][]ucEntry
}

// ExtractSeedRow reads out candidate x's credit rows — the
// (influenced, Gamma^{V-S}_{x,u}(a)) cells of every action x performed —
// as an opaque payload for CommitSeedRow. It must be called on the engine
// owning x's row (any unpartitioned engine, or the partition whose range
// contains x) before that engine commits x. The cells are copied, so the
// payload remains valid across the commit on every partition, including
// the owner's own.
func (e *Engine) ExtractSeedRow(x graph.NodeID) any {
	if !e.ownsRow(x) {
		panic(fmt.Sprintf("core: ExtractSeedRow(%d) outside partition rows [%d,%d)", x, e.partLo, e.partHi))
	}
	xi := int32(x)
	acts := e.actionsOf[x]
	d := &seedRowData{rows: make([][]ucEntry, len(acts))}
	total := 0
	for _, a := range acts {
		total += len(e.uc[a].row(xi))
	}
	flat := make([]ucEntry, 0, total)
	for i, a := range acts {
		row := e.uc[a].row(xi)
		start := len(flat)
		flat = append(flat, row...)
		d.rows[i] = flat[start:len(flat):len(flat)]
	}
	return d
}

// creditFloor is the Lemma 2 removal threshold: a credit cell whose value
// falls to it or below after a seed commit is deleted.
const creditFloor = 1e-15

// CommitSeedRow commits x to the seed set given the owning engine's
// extracted payload (Algorithm 5, driven by data instead of a local row
// read): per action, Lemma 2 removes from every local credit the share
// flowing through x, and Lemma 3 raises Gamma_{S,u}(a) for every u in the
// payload — SC is maintained as a full replica on every partition, which
// is what keeps Gain exact and bit-identical at any partition count.
// Finally x's local row (owner only) and column are removed. On an
// unpartitioned engine, CommitSeedRow(x, ExtractSeedRow(x)) is exactly
// Add(x).
func (e *Engine) CommitSeedRow(x graph.NodeID, payload any) {
	d := payload.(*seedRowData)
	xi := int32(x)
	for i, a := range e.actionsOf[x] {
		ua := e.mutShard(a)
		row := d.rows[i]                // (u, Gamma^{V-S}_{x,u}(a)) cells from the owner
		col := ua.col(xi)               // local v ids with Gamma^{V-S}_{v,x}(a) > 0
		keep := 1 - e.seedCredit(a, xi) // 1 - Gamma_{S,x}(a)
		// The Gamma^{V-S}_{v,x}(a) values are fixed for the whole update
		// (Lemma 2 only rewrites cells with u != x), so read them once.
		cvxs := make([]float64, len(col))
		for j, v := range col {
			cvxs[j], _ = ua.get(v, xi)
		}
		for _, en := range row {
			u, cxu := en.u, en.c
			// Lemma 2: credits of every local v over u lose the paths
			// through x. Each (v, u) cell lives in exactly one partition
			// (v's), so the per-partition updates are disjoint and their
			// union equals the unpartitioned update.
			for j, v := range col {
				cvx := cvxs[j]
				ri, ei, ok := ua.find(v, u)
				if !ok {
					// Mathematically the entry holds >= cvx*cxu > 0, but
					// truncation may have dropped it; nothing to subtract.
					continue
				}
				value := ua.rows[ri][ei].c - cvx*cxu
				if value > creditFloor {
					ua.rows[ri][ei].c = value
				} else if ua.remove(v, u) {
					e.entries--
				}
			}
			// Lemma 3: Gamma_{S+x,u}(a) = Gamma_{S,u}(a) + cxu*(1-scx).
			// Replayed identically on every partition from the shared
			// payload, keeping the SC replicas bit-identical.
			if e.sc[a] == nil {
				e.sc[a] = make(map[int32]float64)
			}
			e.sc[a][u] += cxu * keep
		}
		// Remove x's row (present only on the owner) and column: x is no
		// longer part of V-S.
		e.entries -= int64(ua.removeRow(xi))
		e.entries -= int64(ua.removeCol(xi))
	}
	e.seeds = append(e.seeds, x)
}

// Slice returns a self-contained partition engine holding only the UC
// rows of influencers in [lo, hi): every shard is restricted to that row
// range (heap shards share the row cell storage and rebuild their column
// mirrors; mapped shards stay zero-copy windows into the snapshot file),
// while the global per-user state is carried in full and SC starts empty.
// The partition is frozen (every shard shared), so commits on it pay
// copy-on-write exactly like commits on a served snapshot. Slicing an
// engine with committed seeds, an engine that is already a partition, or
// an out-of-bounds range is an error.
func (e *Engine) Slice(lo, hi int) (*Engine, error) {
	if len(e.seeds) > 0 {
		return nil, ErrSeedsCommitted
	}
	if e.partitioned {
		return nil, fmt.Errorf("core: cannot slice a partition engine (rows [%d,%d)); slice the full engine instead", e.partLo, e.partHi)
	}
	if lo < 0 || lo > hi || hi > e.numUsers {
		return nil, fmt.Errorf("core: slice rows [%d,%d) outside the universe [0,%d)", lo, hi, e.numUsers)
	}
	p := &Engine{
		numUsers:    e.numUsers,
		uc:          make([]rowStore, len(e.uc)),
		owned:       make([]bool, len(e.uc)),
		sc:          make([]map[int32]float64, len(e.uc)),
		lambda:      e.lambda,
		credit:      e.credit,
		workers:     e.workers,
		baseActions: len(e.uc),
		partitioned: true,
		partLo:      lo,
		partHi:      hi,
	}
	// The per-user state is global and read-only in a partition; it is
	// shared when the source engine is frozen and copied while the source
	// still owns (and may mutate) it.
	if e.ownsUsers {
		p.au = slices.Clone(e.au)
		p.actionsOf = make([][]int32, len(e.actionsOf))
		for u, row := range e.actionsOf {
			p.actionsOf[u] = slices.Clone(row)
		}
	} else {
		p.au = e.au
		p.actionsOf = e.actionsOf
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
// cell slices of the source (the sub-shard is frozen, so any mutation
// promotes a private copy first); mapped shards stay windows into the
// mapping, with the directory and contiguous cell region sub-sliced in
// place.
func sliceShard(st rowStore, lo, hi int32) (rowStore, int64) {
	switch s := st.(type) {
	case *ucAction:
		ri0, ri1 := rowIndexRange(st, lo, hi)
		sub := &ucAction{
			rowKey: s.rowKey[ri0:ri1:ri1],
			rows:   s.rows[ri0:ri1:ri1],
		}
		buildColumnsSorted(sub)
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
	sub, n := sliceShard(ua, int32(e.partLo), int32(e.partHi))
	return sub.(*ucAction), n
}
