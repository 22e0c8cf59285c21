package core

// This file holds the engine's influencer-row-range helpers. Theorem 3
// prices a candidate x from x's own rows plus the global normalizers, so
// a row range [lo, hi) of one engine is all a partition is: these
// helpers account for a range and reassemble an engine from the
// version-4 snapshot slices that each hold one.

// RowFootprint reports the UC entries and the heap and mapped bytes of
// the rows of influencers in [lo, hi), counted exactly as Entries,
// HeapBytes and MappedBytes count the whole engine: over row ranges
// tiling the universe they sum to those totals.
func (e *Engine) RowFootprint(lo, hi int) (entries, heapBytes, mappedBytes int64) {
	for _, s := range e.uc {
		w := s.slice(int32(lo), int32(hi))
		entries += w.entryCount()
		if w.mapped {
			mappedBytes += w.bytes()
		} else {
			heapBytes += w.bytes()
		}
	}
	return entries, heapBytes, mappedBytes
}

// JoinRows returns one heap engine holding every row of parts: engines
// of one model (opened from its version-4 slices) whose base sections
// hold disjoint row ranges, given in ascending range order. The per-user
// state is the first part's, which every slice of a model carries in
// full; each action's shard is the parts' rows concatenated, so the
// result is the engine the slices were cut from, row for row, carved at
// exact size like a scanned shard.
func JoinRows(parts []*Engine) *Engine {
	e := *parts[0]
	e.uc = make([]*shard, len(parts[0].uc))
	e.entries = 0
	for a := range e.uc {
		rows, cells := 0, 0
		for _, p := range parts {
			rows, cells = rows+len(p.uc[a].dir), cells+len(p.uc[a].cells)
		}
		s := &shard{dir: make([]mdirEntry, 0, rows), cells: make([]ucEntry, 0, cells)}
		for _, p := range parts {
			ps := p.uc[a]
			for ri, d := range ps.dir {
				s.dir = append(s.dir, mdirEntry{key: d.key, count: d.count, off: uint64(len(s.cells)) * 16})
				s.cells = append(s.cells, ps.rowAt(ri)...)
			}
		}
		e.uc[a] = s
		e.entries += s.entryCount()
	}
	return &e
}
