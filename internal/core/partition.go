package core

// This file holds the engine's influencer-row-range helpers. Theorem 3
// prices a candidate x from x's own rows plus the global normalizers, so
// a row range [lo, hi) of one engine is all a partition is, and the only
// thing a partition needs from the engine is its accounting.

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
