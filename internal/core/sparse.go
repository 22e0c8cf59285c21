package core

import (
	"cmp"
	"slices"
)

// This file holds the Engine's sorted-sparse shard: the ucAction
// structure, its binary-search helpers, and the shard copy used by
// copy-on-write and Compact. Keeping every sorted search in one place
// means the base/delta merge path reuses one implementation instead of
// growing private copies.

// ucEntry is one cell of an influencer's credit row.
type ucEntry struct {
	u int32   // influenced user
	c float64 // Gamma^{V-S}_{v,u}(a)
}

// ucAction holds one action's credit matrix as sorted sparse rows: rowKey
// lists the influencers in ascending order and rows[i] holds rowKey[i]'s
// (influenced, credit) cells sorted by influenced id. colKey/cols mirror
// the structure column-wise (influenced -> sorted influencer ids) so seed
// updates can walk a column without scanning every row. All four slices
// are kept exactly in sync; iteration order is therefore fixed, which
// makes every float summation over the structure deterministic.
type ucAction struct {
	rowKey []int32
	rows   [][]ucEntry
	colKey []int32
	cols   [][]int32
}

// searchRow locates influenced id u in a sorted row.
func searchRow(row []ucEntry, u int32) (int, bool) {
	return slices.BinarySearchFunc(row, u, func(e ucEntry, u int32) int {
		return cmp.Compare(e.u, u)
	})
}

// cloneShard returns an exact deep copy of a shard, carved like a
// scanned one: every row from one backing array, every column from
// another, and each slice with cap == len. It backs Engine's
// copy-on-write Add (the first mutation of a shared shard copies it) and
// Compact (re-allocating a shard at exact size sheds the slack its
// removals left).
func cloneShard(src *ucAction) *ucAction {
	return &ucAction{
		rowKey: slices.Clip(slices.Clone(src.rowKey)),
		rows:   carveClone(src.rows),
		colKey: slices.Clip(slices.Clone(src.colKey)),
		cols:   carveClone(src.cols),
	}
}

// carveClone copies every inner slice of src into one backing array,
// each carved with cap == len.
func carveClone[T any](src [][]T) [][]T {
	if len(src) == 0 {
		return nil
	}
	n := 0
	for _, s := range src {
		n += len(s)
	}
	back := make([]T, n)
	dst := make([][]T, len(src))
	off := 0
	for i, s := range src {
		end := off + copy(back[off:], s)
		dst[i] = back[off:end:end]
		off = end
	}
	return dst
}

// hasSlack reports whether any of the shard's slices has spare capacity:
// removals shrink rows, columns and key lists in place, and builders that
// append can over-allocate. A shard without slack is already at exact
// size, so Compact keeps it instead of copying it.
func (ua *ucAction) hasSlack() bool {
	if cap(ua.rowKey) > len(ua.rowKey) || cap(ua.rows) > len(ua.rows) ||
		cap(ua.colKey) > len(ua.colKey) || cap(ua.cols) > len(ua.cols) {
		return true
	}
	for _, row := range ua.rows {
		if cap(row) > len(row) {
			return true
		}
	}
	for _, col := range ua.cols {
		if cap(col) > len(col) {
			return true
		}
	}
	return false
}

// row returns v's credit cells, sorted by influenced id, or nil.
func (ua *ucAction) row(v int32) []ucEntry {
	if i, ok := slices.BinarySearch(ua.rowKey, v); ok {
		return ua.rows[i]
	}
	return nil
}

// col returns the sorted influencer ids with credit over u, or nil.
func (ua *ucAction) col(u int32) []int32 {
	if i, ok := slices.BinarySearch(ua.colKey, u); ok {
		return ua.cols[i]
	}
	return nil
}

// get returns the credit of entry (v,u) and whether it exists.
func (ua *ucAction) get(v, u int32) (float64, bool) {
	row := ua.row(v)
	if i, ok := searchRow(row, u); ok {
		return row[i].c, true
	}
	return 0, false
}

// colRemove drops v from u's column, pruning the column when it empties.
func (ua *ucAction) colRemove(u, v int32) {
	ci, ok := slices.BinarySearch(ua.colKey, u)
	if !ok {
		return
	}
	vi, found := slices.BinarySearch(ua.cols[ci], v)
	if !found {
		return
	}
	ua.cols[ci] = slices.Delete(ua.cols[ci], vi, vi+1)
	if len(ua.cols[ci]) == 0 {
		ua.colKey = slices.Delete(ua.colKey, ci, ci+1)
		ua.cols = slices.Delete(ua.cols, ci, ci+1)
	}
}

// rowRemoveEntry drops cell (v,u) from v's row, pruning the row when it
// empties; it does not touch the column index.
func (ua *ucAction) rowRemoveEntry(v, u int32) bool {
	ri, ok := slices.BinarySearch(ua.rowKey, v)
	if !ok {
		return false
	}
	ei, found := searchRow(ua.rows[ri], u)
	if !found {
		return false
	}
	ua.rows[ri] = slices.Delete(ua.rows[ri], ei, ei+1)
	if len(ua.rows[ri]) == 0 {
		ua.rowKey = slices.Delete(ua.rowKey, ri, ri+1)
		ua.rows = slices.Delete(ua.rows, ri, ri+1)
	}
	return true
}

// find locates entry (v,u), returning its row and cell indexes.
func (ua *ucAction) find(v, u int32) (ri, ei int, ok bool) {
	ri, ok = slices.BinarySearch(ua.rowKey, v)
	if !ok {
		return 0, 0, false
	}
	ei, ok = searchRow(ua.rows[ri], u)
	return ri, ei, ok
}

// remove deletes entry (v,u) from both indexes; reports whether it existed.
func (ua *ucAction) remove(v, u int32) bool {
	if !ua.rowRemoveEntry(v, u) {
		return false
	}
	ua.colRemove(u, v)
	return true
}

// removeRow deletes v's entire row, unmirroring every cell from the column
// index; returns how many entries were removed.
func (ua *ucAction) removeRow(v int32) int {
	ri, ok := slices.BinarySearch(ua.rowKey, v)
	if !ok {
		return 0
	}
	row := ua.rows[ri]
	ua.rowKey = slices.Delete(ua.rowKey, ri, ri+1)
	ua.rows = slices.Delete(ua.rows, ri, ri+1)
	for _, en := range row {
		ua.colRemove(en.u, v)
	}
	return len(row)
}

// removeCol deletes u's entire column, dropping every (v,u) cell from the
// rows; returns how many entries were removed.
func (ua *ucAction) removeCol(u int32) int {
	ci, ok := slices.BinarySearch(ua.colKey, u)
	if !ok {
		return 0
	}
	col := ua.cols[ci]
	ua.colKey = slices.Delete(ua.colKey, ci, ci+1)
	ua.cols = slices.Delete(ua.cols, ci, ci+1)
	n := 0
	for _, v := range col {
		if ua.rowRemoveEntry(v, u) {
			n++
		}
	}
	return n
}

// residentBytes reports the shard's slice footprint: 16 bytes per entry in
// the rows (int32 influenced id + float64 credit, padded) plus 4 bytes in
// the column index, with per-row slice headers on top.
func (ua *ucAction) residentBytes() int64 {
	bytes := int64(cap(ua.rowKey))*4 + int64(cap(ua.colKey))*4
	for _, row := range ua.rows {
		bytes += int64(cap(row)) * 16
	}
	for _, col := range ua.cols {
		bytes += int64(cap(col)) * 4
	}
	return bytes + int64(cap(ua.rows)+cap(ua.cols))*24 // inner slice headers
}
