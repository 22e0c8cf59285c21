package core

import (
	"cmp"
	"slices"
)

// This file holds the Engine's sorted-sparse shard: the ucAction
// structure and its binary-search helpers. Keeping every sorted search in
// one place means the scan, the probe replay and the snapshot readers
// share one implementation instead of growing private copies.

// ucEntry is one cell of an influencer's credit row.
type ucEntry struct {
	u int32   // influenced user
	c float64 // Gamma_{v,u}(a)
}

// ucAction holds one action's credit matrix as sorted sparse rows: rowKey
// lists the influencers in ascending order and rows[i] holds rowKey[i]'s
// (influenced, credit) cells sorted by influenced id. Iteration order is
// therefore fixed, which makes every float summation over the structure
// deterministic. A shard is never written once built.
type ucAction struct {
	rowKey []int32
	rows   [][]ucEntry
}

// searchRow locates influenced id u in a sorted row.
func searchRow(row []ucEntry, u int32) (int, bool) {
	return slices.BinarySearchFunc(row, u, func(e ucEntry, u int32) int {
		return cmp.Compare(e.u, u)
	})
}

// row returns v's credit cells, sorted by influenced id, or nil.
func (ua *ucAction) row(v int32) []ucEntry {
	if i, ok := slices.BinarySearch(ua.rowKey, v); ok {
		return ua.rows[i]
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

// residentBytes reports the shard's slice footprint: 16 bytes per entry in
// the rows (int32 influenced id + float64 credit, padded) and 4 per row
// key, with per-row slice headers on top.
func (ua *ucAction) residentBytes() int64 {
	bytes := int64(cap(ua.rowKey)) * 4
	for _, row := range ua.rows {
		bytes += int64(cap(row)) * 16
	}
	return bytes + int64(cap(ua.rows))*24 // inner slice headers
}
