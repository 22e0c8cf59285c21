package core

// This file holds the Engine's one shard type and its binary-search
// helpers. A shard is laid out exactly like a block of a snapshot's base
// section (snapshot.go): a 16-byte row-directory record per influencer
// and 16-byte cells, row-major. The scan carves shards in that layout, a
// snapshot open aliases them in place (from a mapping or from one heap
// buffer), and the writer streams them back out, so every path shares one
// representation and the sorted searches live in one place.

// ucEntry is one cell of an influencer's credit row. Its Go layout
// matches the 16-byte on-disk cell (i32 influenced id, 4 padding bytes,
// f64 credit bits) on 64-bit little-endian hosts.
type ucEntry struct {
	u int32   // influenced user
	c float64 // Gamma_{v,u}(a)
}

// mdirEntry is one row-directory record: influencer id, cell count, and
// the byte offset of the row's cells. Its Go layout matches the 16-byte
// on-disk record, so a directory read from a snapshot is binary-searched
// in place.
type mdirEntry struct {
	key   int32
	count uint32
	off   uint64
}

// shard holds one action's credit matrix as sorted sparse rows: dir lists
// the influencers in ascending order, and each row's cells — sorted by
// influenced id — sit in cells, row-major and contiguous. Iteration order
// is therefore fixed, which makes every float summation over the
// structure deterministic. Directory offsets count bytes from an origin
// that cells[0] sits first bytes past: the base-section start for a shard
// read from a snapshot, cells[0] itself for a scanned one. mapped marks
// shards whose bytes are file-backed pages of a mapped snapshot rather
// than Go heap. A shard is never written once built, so engines,
// successors and partitions share them.
type shard struct {
	dir    []mdirEntry
	cells  []ucEntry
	first  uint64
	mapped bool
}

// searchRow returns the index of the first cell of a sorted row whose
// influenced id is at least u, and whether that cell's id is u. Like
// searchDir it is written out: the replay and the reach walk call it once
// per row they read.
func searchRow(row []ucEntry, u int32) (int, bool) {
	lo, hi := 0, len(row)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if row[m].u < u {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(row) && row[lo].u == u
}

// searchDir returns the directory index of the first row whose key is at
// least v, and whether that row's key is v. It is the row lookup of every
// Gain, so the search is written out rather than run through a compare
// callback.
func (s *shard) searchDir(v int32) (int, bool) {
	lo, hi := 0, len(s.dir)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.dir[m].key < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.dir) && s.dir[lo].key == v
}

func (s *shard) entryCount() int64 { return int64(len(s.cells)) }

// rowAt returns the ri-th row's cells, sorted by influenced id.
func (s *shard) rowAt(ri int) []ucEntry {
	d := s.dir[ri]
	start := (d.off - s.first) / 16
	return s.cells[start : start+uint64(d.count) : start+uint64(d.count)]
}

// row returns v's credit cells, sorted by influenced id, or nil.
func (s *shard) row(v int32) []ucEntry {
	if ri, ok := s.searchDir(v); ok {
		return s.rowAt(ri)
	}
	return nil
}

// get returns the credit of entry (v,u) and whether it exists.
func (s *shard) get(v, u int32) (float64, bool) {
	row := s.row(v)
	if i, ok := searchRow(row, u); ok {
		return row[i].c, true
	}
	return 0, false
}

// bytes reports the shard's footprint: 16 bytes per directory record and
// per cell, wherever they live.
func (s *shard) bytes() int64 { return int64(len(s.dir)+len(s.cells)) * 16 }

// slice restricts the shard to the influencer rows in [lo, hi). The
// result is a window sharing the receiver's directory and cells — and
// its backing, mapped or heap.
func (s *shard) slice(lo, hi int32) *shard {
	ri0, _ := s.searchDir(lo)
	ri1, _ := s.searchDir(hi)
	sub := &shard{mapped: s.mapped}
	if ri0 < ri1 {
		sub.dir = s.dir[ri0:ri1:ri1]
		sub.first = sub.dir[0].off
		start := (sub.first - s.first) / 16
		last := sub.dir[len(sub.dir)-1]
		end := (last.off-s.first)/16 + uint64(last.count)
		sub.cells = s.cells[start:end:end]
	}
	return sub
}
