package core

// This file defines the row-store boundary behind the engine: the read
// path (Gain, probe replay, Credit, snapshot serialization) sees every
// shard through the small rowStore interface, so a shard can live either
// as heap ucAction slices or as a window into a memory-mapped version-3
// snapshot (mapped.go) without the query algorithms knowing. Shards the
// engine scans itself — at construction or by AppendActions — are heap
// ucAction values. No shard of either kind is ever written.

// rowStore is the read surface of one action's UC shard. Rows are sorted
// sparse (sparse.go): rowKeyAt(i) ascends with i, and every row's entries
// ascend by influenced id, which keeps float summation order — and
// therefore every Gain/Spread/CELF bit — independent of the backend.
//
// Implementations: *ucAction (heap) and *mappedShard (window into a
// mapped snapshot).
type rowStore interface {
	// numRows returns how many influencers have a credit row.
	numRows() int
	// rowKeyAt returns the i-th influencer id, ascending in i.
	rowKeyAt(ri int) int32
	// rowAt returns the i-th row's cells, sorted by influenced id. The
	// returned slice is a read-only view into the backend.
	rowAt(ri int) []ucEntry
	// row returns v's credit cells, or nil when v has no row.
	row(v int32) []ucEntry
	// get returns the credit of cell (v,u) and whether it exists.
	get(v, u int32) (float64, bool)
	// entryCount returns the shard's live cell count.
	entryCount() int64
	// heapBytes and mappedBytes split the shard's resident footprint by
	// where the bytes live: Go-heap slices versus file-backed mapped
	// pages. Exactly one of them is non-zero for a non-empty shard.
	heapBytes() int64
	mappedBytes() int64
	// backendName identifies the backend ("heap" or "mmap") for stats.
	backendName() string
}

// --- ucAction as a rowStore -------------------------------------------------

func (ua *ucAction) numRows() int           { return len(ua.rowKey) }
func (ua *ucAction) rowKeyAt(ri int) int32  { return ua.rowKey[ri] }
func (ua *ucAction) rowAt(ri int) []ucEntry { return ua.rows[ri] }

func (ua *ucAction) entryCount() int64 {
	var n int64
	for _, row := range ua.rows {
		n += int64(len(row))
	}
	return n
}

func (ua *ucAction) heapBytes() int64   { return ua.residentBytes() }
func (ua *ucAction) mappedBytes() int64 { return 0 }

func (ua *ucAction) backendName() string { return "heap" }
