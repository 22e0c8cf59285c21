package core

import (
	"fmt"
	"maps"
	"slices"

	"credist/internal/graph"
)

// commitOracle is Algorithm 5 as the paper states it, kept in the tests
// as the reference the probe is checked against: a private, mutable copy
// of an engine's credit structure with a column mirror, into which Add
// commits each seed in place — Lemma 2 lowers every credit flowing
// through the seed, Lemma 3 raises SC, and the seed's row and column go —
// with the arithmetic in the order the engine's former in-place commit
// path used. The engine it copies is only read (per-user state and
// normalizers never change under commits).
type commitOracle struct {
	e       *Engine
	shards  []*oracleShard
	sc      []map[int32]float64 // per action: Gamma_{S,x}(a) for current seeds
	seeds   []graph.NodeID
	entries int64
}

// oracleShard is one action's mutable credit matrix: a shard's sorted
// rows plus the column mirror (influenced -> sorted influencer ids)
// that lets a commit walk the seed's column without scanning every row.
type oracleShard struct {
	rowKey []int32
	rows   [][]ucEntry
	colKey []int32
	cols   [][]int32
}

// newCommitOracle copies every shard of a full (unpartitioned) engine,
// heap or mapped, into private mutable shards with rebuilt columns.
func newCommitOracle(e *Engine) *commitOracle {
	if e.partitioned {
		panic("core: commit oracle over a partition engine")
	}
	o := &commitOracle{e: e, shards: make([]*oracleShard, len(e.uc)), sc: make([]map[int32]float64, len(e.uc)), entries: e.entries}
	for a, st := range e.uc {
		sh := &oracleShard{}
		for ri := 0; ri < len(st.dir); ri++ {
			sh.rowKey = append(sh.rowKey, st.dir[ri].key)
			sh.rows = append(sh.rows, slices.Clone(st.rowAt(ri)))
		}
		sh.buildColumns()
		o.shards[a] = sh
	}
	return o
}

// buildColumns rebuilds the column mirror from the rows: each column's
// influencers land in ascending order because the row walk ascends.
func (sh *oracleShard) buildColumns() {
	sh.colKey, sh.cols = nil, nil
	for _, row := range sh.rows {
		for _, en := range row {
			if _, ok := slices.BinarySearch(sh.colKey, en.u); !ok {
				i, _ := slices.BinarySearch(sh.colKey, en.u)
				sh.colKey = slices.Insert(sh.colKey, i, en.u)
				sh.cols = slices.Insert(sh.cols, i, []int32(nil))
			}
		}
	}
	for ri, v := range sh.rowKey {
		for _, en := range sh.rows[ri] {
			ci, _ := slices.BinarySearch(sh.colKey, en.u)
			sh.cols[ci] = append(sh.cols[ci], v)
		}
	}
}

// clone returns an independent deep copy.
func (o *commitOracle) clone() *commitOracle {
	c := &commitOracle{e: o.e, shards: make([]*oracleShard, len(o.shards)), sc: make([]map[int32]float64, len(o.sc)),
		seeds: slices.Clone(o.seeds), entries: o.entries}
	for a, sh := range o.shards {
		n := &oracleShard{rowKey: slices.Clone(sh.rowKey), colKey: slices.Clone(sh.colKey)}
		for _, row := range sh.rows {
			n.rows = append(n.rows, slices.Clone(row))
		}
		for _, col := range sh.cols {
			n.cols = append(n.cols, slices.Clone(col))
		}
		c.shards[a] = n
	}
	for a, m := range o.sc {
		if m != nil {
			c.sc[a] = maps.Clone(m)
		}
	}
	return c
}

func (sh *oracleShard) row(v int32) []ucEntry {
	if i, ok := slices.BinarySearch(sh.rowKey, v); ok {
		return sh.rows[i]
	}
	return nil
}

func (sh *oracleShard) col(u int32) []int32 {
	if i, ok := slices.BinarySearch(sh.colKey, u); ok {
		return sh.cols[i]
	}
	return nil
}

func (sh *oracleShard) get(v, u int32) (float64, bool) {
	row := sh.row(v)
	if i, ok := searchRow(row, u); ok {
		return row[i].c, true
	}
	return 0, false
}

func (sh *oracleShard) find(v, u int32) (ri, ei int, ok bool) {
	ri, ok = slices.BinarySearch(sh.rowKey, v)
	if !ok {
		return 0, 0, false
	}
	ei, ok = searchRow(sh.rows[ri], u)
	return ri, ei, ok
}

// colRemove drops v from u's column, pruning the column when it empties.
func (sh *oracleShard) colRemove(u, v int32) {
	ci, ok := slices.BinarySearch(sh.colKey, u)
	if !ok {
		return
	}
	vi, found := slices.BinarySearch(sh.cols[ci], v)
	if !found {
		return
	}
	sh.cols[ci] = slices.Delete(sh.cols[ci], vi, vi+1)
	if len(sh.cols[ci]) == 0 {
		sh.colKey = slices.Delete(sh.colKey, ci, ci+1)
		sh.cols = slices.Delete(sh.cols, ci, ci+1)
	}
}

// rowRemoveEntry drops cell (v,u) from v's row, pruning the row when it
// empties; it does not touch the column index.
func (sh *oracleShard) rowRemoveEntry(v, u int32) bool {
	ri, ei, ok := sh.find(v, u)
	if !ok {
		return false
	}
	sh.rows[ri] = slices.Delete(sh.rows[ri], ei, ei+1)
	if len(sh.rows[ri]) == 0 {
		sh.rowKey = slices.Delete(sh.rowKey, ri, ri+1)
		sh.rows = slices.Delete(sh.rows, ri, ri+1)
	}
	return true
}

// remove deletes entry (v,u) from both indexes; reports whether it existed.
func (sh *oracleShard) remove(v, u int32) bool {
	if !sh.rowRemoveEntry(v, u) {
		return false
	}
	sh.colRemove(u, v)
	return true
}

// removeRow deletes v's entire row and its column mirror cells; returns
// how many entries were removed.
func (sh *oracleShard) removeRow(v int32) int {
	ri, ok := slices.BinarySearch(sh.rowKey, v)
	if !ok {
		return 0
	}
	row := sh.rows[ri]
	sh.rowKey = slices.Delete(sh.rowKey, ri, ri+1)
	sh.rows = slices.Delete(sh.rows, ri, ri+1)
	for _, en := range row {
		sh.colRemove(en.u, v)
	}
	return len(row)
}

// removeCol deletes u's entire column, dropping every (v,u) cell from the
// rows; returns how many entries were removed.
func (sh *oracleShard) removeCol(u int32) int {
	ci, ok := slices.BinarySearch(sh.colKey, u)
	if !ok {
		return 0
	}
	col := sh.cols[ci]
	sh.colKey = slices.Delete(sh.colKey, ci, ci+1)
	sh.cols = slices.Delete(sh.cols, ci, ci+1)
	n := 0
	for _, v := range col {
		if sh.rowRemoveEntry(v, u) {
			n++
		}
	}
	return n
}

// seedCredit returns SC[x][a], zero when unset.
func (o *commitOracle) seedCredit(a, x int32) float64 {
	if o.sc[a] == nil {
		return 0
	}
	return o.sc[a][x]
}

// Add commits x in place (Algorithm 5). Per action x performed: Lemma 2
// removes from every credit (v,u) the share v*x*u flowing through x,
// deleting cells that fall to creditFloor; Lemma 3 raises SC[u] by
// c_xu*(1-SC[x]); then x's row and column are removed, matching the V-S
// superscript of Theorem 3. Committing a seed twice changes nothing.
func (o *commitOracle) Add(x graph.NodeID) {
	if slices.Contains(o.seeds, x) {
		return
	}
	xi := int32(x)
	for _, a := range o.e.actionsOf[x] {
		sh := o.shards[a]
		row := slices.Clone(sh.row(xi)) // (u, Gamma^{V-S}_{x,u}(a)) cells
		col := sh.col(xi)               // v ids with Gamma^{V-S}_{v,x}(a) > 0
		keep := 1 - o.seedCredit(a, xi) // 1 - Gamma_{S,x}(a)
		// The Gamma^{V-S}_{v,x}(a) values are fixed for the whole update
		// (Lemma 2 only rewrites cells with u != x), so read them once.
		cvxs := make([]float64, len(col))
		for j, v := range col {
			cvxs[j], _ = sh.get(v, xi)
		}
		col = slices.Clone(col)
		for _, en := range row {
			u, cxu := en.u, en.c
			for j, v := range col {
				cvx := cvxs[j]
				ri, ei, ok := sh.find(v, u)
				if !ok {
					// Mathematically the entry holds >= cvx*cxu > 0, but
					// truncation may have dropped it; nothing to subtract.
					continue
				}
				value := sh.rows[ri][ei].c - cvx*cxu
				if value > creditFloor {
					sh.rows[ri][ei].c = value
				} else if sh.remove(v, u) {
					o.entries--
				}
			}
			if o.sc[a] == nil {
				o.sc[a] = make(map[int32]float64)
			}
			o.sc[a][u] += cxu * keep
		}
		o.entries -= int64(sh.removeRow(xi))
		o.entries -= int64(sh.removeCol(xi))
	}
	o.seeds = append(o.seeds, x)
}

// GainObj is Theorem 3 over the committed structure: the engine's gainSum
// fed x's current rows and SC. A committed seed gains exactly 0.
func (o *commitOracle) GainObj(x graph.NodeID, obj *Objective) float64 {
	if slices.Contains(o.seeds, x) {
		return 0
	}
	xi := int32(x)
	return o.e.gainSum(x, obj, func(_ int, a int32) ([]ucEntry, float64) {
		return o.shards[a].row(xi), o.seedCredit(a, xi)
	})
}

// Gain, NumNodes and Add make the oracle a seedsel.Estimator, and
// ConcurrentGain a celf.ConcurrentEstimator, so celf runs over it exactly
// as over a ProbeEstimator: Gain only reads between Adds.
func (o *commitOracle) Gain(x graph.NodeID) float64 { return o.GainObj(x, nil) }
func (o *commitOracle) NumNodes() int               { return o.e.numUsers }
func (o *commitOracle) ConcurrentGain()             {}

// Seeds returns the committed seeds in commit order.
func (o *commitOracle) Seeds() []graph.NodeID { return slices.Clone(o.seeds) }

// Entries returns the live UC entry count after the commits.
func (o *commitOracle) Entries() int64 { return o.entries }

// Credit returns UC[v][u][a] = Gamma^{V-S}_{v,u}(a) after the commits.
func (o *commitOracle) Credit(a int32, v, u graph.NodeID) float64 {
	c, _ := o.shards[a].get(int32(v), int32(u))
	return c
}

// ExplainSeed is the engine's ExplainSeed walk over the committed
// structure.
func (o *commitOracle) ExplainSeed(x graph.NodeID, top int) SeedExplanation {
	e := o.e
	ex := SeedExplanation{Node: x}
	ax := float64(e.au[x])
	if ax == 0 || slices.Contains(o.seeds, x) {
		return ex
	}
	mg := 0.0
	var paths []ProvPath
	for _, a := range e.actionsOf[x] {
		mga := 1.0 / ax
		row := o.shards[a].row(int32(x))
		scx := o.seedCredit(a, int32(x))
		paths = append(paths, ProvPath{Influencer: x, Influenced: x, Action: a, Credit: (1.0 / ax) * (1 - scx)})
		for _, en := range row {
			mga += en.c / float64(e.au[en.u])
			paths = append(paths, ProvPath{Influencer: x, Influenced: en.u, Action: a, Credit: (en.c / float64(e.au[en.u])) * (1 - scx)})
		}
		mg += mga * (1 - scx)
	}
	ex.Gain = mg
	ex.TotalPaths = len(paths)
	ex.Paths = TopProvPaths(paths, top)
	return ex
}

// ExplainReach is the engine's ExplainReach shard walk over the committed
// structure: a committed seed's row and a committed target's column are
// gone, so they contribute nothing.
func (o *commitOracle) ExplainReach(seeds []graph.NodeID, v graph.NodeID, top int) ReachExplanation {
	e := o.e
	ex := ReachExplanation{Target: v, PerSeed: make([]ReachShare, 0, len(seeds))}
	av := float64(e.au[v])
	var paths []ProvPath
	for _, s := range seeds {
		share := 0.0
		if av != 0 {
			for _, a := range e.actionsOf[s] {
				c, ok := o.shards[a].get(int32(s), int32(v))
				if !ok {
					continue
				}
				share += c / av
				paths = append(paths, ProvPath{Influencer: s, Influenced: v, Action: a, Credit: c / av})
			}
		}
		ex.PerSeed = append(ex.PerSeed, ReachShare{Seed: s, Share: share})
		ex.Total += share
	}
	ex.TotalPaths = len(paths)
	ex.Paths = TopProvPaths(paths, top)
	return ex
}

// checkColumns verifies the mirror matches the rows exactly; a commit that
// left them out of sync would make later commits walk stale columns.
func (o *commitOracle) checkColumns() error {
	for a, sh := range o.shards {
		want := &oracleShard{rowKey: sh.rowKey, rows: sh.rows}
		want.buildColumns()
		if !slices.Equal(want.colKey, sh.colKey) || len(want.cols) != len(sh.cols) {
			return fmt.Errorf("action %d: column keys %v, rows imply %v", a, sh.colKey, want.colKey)
		}
		for i := range want.cols {
			if !slices.Equal(want.cols[i], sh.cols[i]) {
				return fmt.Errorf("action %d column %d: %v, rows imply %v", a, sh.colKey[i], sh.cols[i], want.cols[i])
			}
		}
	}
	return nil
}
