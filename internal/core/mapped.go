package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"unsafe"
)

// This file is the mmap backend of the rowStore interface: a version-3
// snapshot's base section is laid out exactly like the in-memory sorted
// sparse rows (16-byte directory records, 16-byte ucEntry-shaped cells,
// everything 8-aligned and little-endian), so OpenSnapshotMapped serves
// Gain/Credit/CELF straight off the mapped file — no entry parse, no
// per-row allocation, and the OS pages cold shards in and out on demand.
// Structural validation still runs in full before the first query: the
// header CRC, every offset table, every key and id. What a mapped open
// does not do is copy or checksum the credit payload; the full-file CRC
// footer is verified by the heap reader (ReadSnapshotPrefix), which
// remains the integrity-checking path.

// mdirEntry is one row-directory record of a version-3 base section:
// influencer id, cell count, and the byte offset of the row's cells
// relative to the base-section start. Its Go layout matches the 16-byte
// on-disk record, so a mapped directory is binary-searched in place.
type mdirEntry struct {
	key   int32
	count uint32
	off   uint64
}

// baseExtent locates one action's validated block inside the snapshot
// payload: the row directory and the contiguous cell region.
type baseExtent struct {
	dirStart int // payload offset of the first directory record
	rowCount int
	entStart int // payload offset of the first cell
	entCount int
}

// mappedAliasSupported reports whether this platform can alias the v3
// base section in place: the host must be little-endian and lay ucEntry
// and mdirEntry out exactly like the on-disk records (true on all
// 64-bit Go platforms; 32-bit targets pack float64 tighter). When it is
// false, OpenSnapshotMapped still works by decoding the same bytes into
// heap shards.
func mappedAliasSupported() bool {
	if unsafe.Sizeof(ucEntry{}) != 16 || unsafe.Offsetof(ucEntry{}.c) != 8 {
		return false
	}
	if unsafe.Sizeof(mdirEntry{}) != 16 || unsafe.Offsetof(mdirEntry{}.off) != 8 {
		return false
	}
	probe := [4]byte{0x01, 0x02, 0x03, 0x04}
	return binary.NativeEndian.Uint32(probe[:]) == binary.LittleEndian.Uint32(probe[:])
}

// mappedShard is a read-only rowStore over one action's block of a mapped
// version-3 snapshot. dir and entries alias the mapping directly.
type mappedShard struct {
	numUsers int
	dir      []mdirEntry
	entries  []ucEntry // all cells of the shard, row-major, contiguous
	first    uint64    // base-relative offset of entries[0]
	bytes    int64     // mapped footprint: block header + dir + cells
}

func (ms *mappedShard) numRows() int          { return len(ms.dir) }
func (ms *mappedShard) rowKeyAt(ri int) int32 { return ms.dir[ri].key }

func (ms *mappedShard) rowAt(ri int) []ucEntry {
	d := ms.dir[ri]
	start := (d.off - ms.first) / 16
	return ms.entries[start : start+uint64(d.count)]
}

func (ms *mappedShard) row(v int32) []ucEntry {
	ri, ok := slices.BinarySearchFunc(ms.dir, v, func(d mdirEntry, v int32) int {
		return cmp.Compare(d.key, v)
	})
	if !ok {
		return nil
	}
	return ms.rowAt(ri)
}

func (ms *mappedShard) get(v, u int32) (float64, bool) {
	row := ms.row(v)
	if i, ok := searchRow(row, u); ok {
		return row[i].c, true
	}
	return 0, false
}

func (ms *mappedShard) entryCount() int64 { return int64(len(ms.entries)) }
func (ms *mappedShard) heapBytes() int64  { return 0 }
func (ms *mappedShard) mappedBytes() int64 {
	return ms.bytes
}
func (ms *mappedShard) backendName() string { return "mmap" }

// validateBaseSection walks a version-3/4 base section at payload[baseOff:]
// and enforces the canonical layout in full: the per-action offset table
// must point at contiguous, in-order blocks; row keys and cell ids must
// be strictly ascending and in range — row keys additionally inside
// [rowLo, rowHi), the declared row range of a version-4 slice (the full
// universe for a version-3 file); every row offset must equal its
// canonical (contiguous, 8-aligned) position; cell padding words must be
// zero; and the section must end exactly at the payload end. Both the
// heap reader and the mapped open run this, so a corrupt or hostile
// offset table is rejected before any row is ever addressed.
func validateBaseSection(payload []byte, baseOff, numUsers, numActions, rowLo, rowHi int) ([]baseExtent, int64, error) {
	fail := func(format string, args ...any) ([]baseExtent, int64, error) {
		return nil, 0, fmt.Errorf("core: snapshot: "+format, args...)
	}
	if baseOff < 0 || baseOff > len(payload) {
		return fail("base section offset %d outside the payload", baseOff)
	}
	if baseOff%8 != 0 {
		return fail("base section starts at offset %d, not 8-aligned", baseOff)
	}
	base := payload[baseOff:]
	size := uint64(len(base))
	if uint64(numActions)*8 > size {
		return fail("truncated base section: offset table needs %d bytes, have %d", numActions*8, len(base))
	}
	extents := make([]baseExtent, numActions)
	var total int64
	cur := uint64(numActions) * 8 // canonical offset of the first block
	for a := 0; a < numActions; a++ {
		declared := binary.LittleEndian.Uint64(base[a*8:])
		if declared != cur {
			return fail("action %d block offset %d, canonical layout expects %d (misaligned offset table)", a, declared, cur)
		}
		if cur+8 > size {
			return fail("truncated base section: action %d block header at %d, section holds %d bytes", a, cur, size)
		}
		rowCount := binary.LittleEndian.Uint64(base[cur:])
		if rowCount > maxSnapshotDim || cur+8+rowCount*16 > size {
			return fail("action %d declares %d rows, beyond the remaining %d bytes", a, rowCount, size-cur-8)
		}
		dirStart := cur + 8
		entStart := dirStart + rowCount*16
		entOff := entStart
		prevKey := int32(-1)
		for ri := uint64(0); ri < rowCount; ri++ {
			rec := base[dirStart+ri*16:]
			key := int32(binary.LittleEndian.Uint32(rec))
			count := binary.LittleEndian.Uint32(rec[4:])
			off := binary.LittleEndian.Uint64(rec[8:])
			if key < 0 || int(key) >= numUsers {
				return fail("action %d row key %d out of range [0,%d)", a, key, numUsers)
			}
			if int(key) < rowLo || int(key) >= rowHi {
				return fail("action %d row key %d outside the slice's declared rows [%d,%d)", a, key, rowLo, rowHi)
			}
			if key <= prevKey {
				return fail("action %d row keys out of order at %d", a, key)
			}
			prevKey = key
			if count == 0 {
				return fail("action %d row %d is empty", a, key)
			}
			if off != entOff {
				return fail("action %d row %d cells at offset %d, canonical layout expects %d", a, key, off, entOff)
			}
			need := uint64(count) * 16
			if entOff+need > size || entOff+need < entOff {
				return fail("action %d row %d declares %d cells, beyond the section end", a, key, count)
			}
			prevU := int32(-1)
			for c := entOff; c < entOff+need; c += 16 {
				cell := base[c:]
				u := int32(binary.LittleEndian.Uint32(cell))
				if u < 0 || int(u) >= numUsers {
					return fail("action %d cell id %d out of range [0,%d)", a, u, numUsers)
				}
				if u <= prevU {
					return fail("action %d row %d cells out of order at %d", a, key, u)
				}
				prevU = u
				if binary.LittleEndian.Uint32(cell[4:]) != 0 {
					return fail("action %d row %d has a non-zero cell padding word", a, key)
				}
			}
			entOff += need
		}
		extents[a] = baseExtent{
			dirStart: baseOff + int(dirStart),
			rowCount: int(rowCount),
			entStart: baseOff + int(entStart),
			entCount: int((entOff - entStart) / 16),
		}
		total += int64(extents[a].entCount)
		cur = entOff
	}
	if cur != size {
		return fail("base section holds %d bytes past the last block", size-cur)
	}
	return extents, total, nil
}

// MappedSnapshot owns the file mapping behind an engine returned by
// OpenSnapshotMapped. It must stay open for as long as any engine (or
// successor of one) or provenance index derived from it is in use: shards and
// provenance records alias the mapping directly, and Close unmaps it.
// Closing is idempotent.
type MappedSnapshot struct {
	data    []byte
	release func() error
	backend string
}

// Close releases the mapping. The caller must have dropped every engine
// and provenance index derived from this snapshot first; reading a mapped
// shard or provenance record after Close faults.
func (m *MappedSnapshot) Close() error {
	if m == nil || m.release == nil {
		return nil
	}
	rel := m.release
	m.release = nil
	m.data = nil
	return rel()
}

// MappedBytes returns the size of the mapping.
func (m *MappedSnapshot) MappedBytes() int64 {
	if m == nil {
		return 0
	}
	return int64(len(m.data))
}

// Backend reports how the snapshot's shards are served: "mmap" when the
// base section is aliased in place, "heap" when this platform cannot
// alias it and the open fell back to decoding.
func (m *MappedSnapshot) Backend() string {
	if m == nil {
		return "heap"
	}
	return m.backend
}

// OpenSnapshotMapped opens a version-3 snapshot file with its frozen base
// served straight from the memory-mapped file: the header (lineage,
// parameters, per-user action lists, seed prefix) is parsed and
// CRC-verified, the base section's offset tables, keys, and ids are
// structurally validated in full, and then every shard is an in-place
// window into the mapping — no cell is parsed, no row allocated. The
// returned engine behaves exactly like one from ReadSnapshotPrefix
// (bit-identical Gain/Spread/CELF), and the mapping is never written.
// The engine is only valid while the returned MappedSnapshot stays open.
//
// Version-1/2 files have no mapped-addressable base section and are
// refused; load them heap-resident and re-save to upgrade. Unlike the
// heap reader, the mapped open does not checksum the cell payload (that
// would fault in every cold page the layout exists to avoid); the footer
// is still present and verified whenever the same file is read with
// ReadSnapshotPrefix.
func OpenSnapshotMapped(path string) (*Engine, Lineage, *SeedPrefix, *MappedSnapshot, error) {
	eng, lin, prefix, _, ms, err := OpenSnapshotMappedSketch(path)
	return eng, lin, prefix, ms, err
}

// OpenSnapshotMappedSketch is OpenSnapshotMapped plus the stored RR
// sketch (nil for files not carrying one), discarding any stored
// provenance index. See OpenSnapshotMappedProv.
func OpenSnapshotMappedSketch(path string) (*Engine, Lineage, *SeedPrefix, *RRSketch, *MappedSnapshot, error) {
	eng, lin, prefix, sketch, _, ms, err := OpenSnapshotMappedProv(path)
	return eng, lin, prefix, sketch, ms, err
}

// OpenSnapshotMappedProv is OpenSnapshotMapped plus the stored RR sketch
// and provenance index (nil for files not carrying them). Both sections
// sit inside the header CRC, so even the mapped open — which skips the
// footer — reads them corruption-checked. The sketch is decoded onto the
// heap; the provenance index reads its records from the mapping in place
// (only its per-influencer offset table is allocated), so like the engine
// it is valid only while the returned MappedSnapshot stays open.
func OpenSnapshotMappedProv(path string) (*Engine, Lineage, *SeedPrefix, *RRSketch, *ProvIndex, *MappedSnapshot, error) {
	var lin Lineage
	data, release, err := mmapFile(path)
	if err != nil {
		return nil, lin, nil, nil, nil, nil, err
	}
	ms := &MappedSnapshot{data: data, release: release, backend: "mmap"}
	if !mappedAliasSupported() {
		ms.backend = "heap"
	}
	eng, lin, prefix, sketch, prov, err := parseSnapshotV3(data, ms.backend == "mmap")
	if err != nil {
		ms.Close()
		return nil, lin, nil, nil, nil, nil, err
	}
	return eng, lin, prefix, sketch, prov, ms, nil
}

// parseSnapshotV3 parses a version-3 snapshot payload held in data
// (footer included). With alias set, shards alias data in place
// (mappedShard) and so do the provenance records; otherwise shards are
// decoded into heap ucActions and the provenance section is copied. The
// header CRC is verified either way; the full-file footer CRC is the
// caller's concern (ReadSnapshotPrefix verifies it first, the mapped
// open deliberately skips it).
func parseSnapshotV3(data []byte, alias bool) (*Engine, Lineage, *SeedPrefix, *RRSketch, *ProvIndex, error) {
	var lin Lineage
	if len(data) < len(snapshotMagic)+4+4 {
		return nil, lin, nil, nil, nil, fmt.Errorf("core: snapshot: truncated input: shorter than the fixed header")
	}
	if !IsSnapshotHeader(data) {
		return nil, lin, nil, nil, nil, fmt.Errorf("core: snapshot: bad magic (not a snapshot file)")
	}
	payload := data[:len(data)-4]
	sc := &snapCursor{b: payload, off: len(snapshotMagic)}
	version := sc.u32()
	if version != snapshotVersion && version != snapshotVersionSlice && version != snapshotVersionSketch && version != snapshotVersionProv {
		if version == snapshotVersionNoBase || version == snapshotVersionNoPrefix {
			return nil, lin, nil, nil, nil, fmt.Errorf("core: snapshot: version %d predates the mapped base section (version %d); load it without mmap or re-save it", version, snapshotVersion)
		}
		return nil, lin, nil, nil, nil, fmt.Errorf("core: snapshot: unsupported version %d (supported: 1 through %d)", version, snapshotVersionProv)
	}
	lin, lambda, credit, err := parseSnapshotHeader(sc)
	if err != nil {
		return nil, lin, nil, nil, nil, err
	}
	e := newSnapshotEngine(lin, lambda, credit)
	if err := parseUsers(sc, lin, e); err != nil {
		return nil, lin, nil, nil, nil, err
	}
	prefix, err := parseSeedPrefix(sc, lin.NumUsers)
	if err != nil {
		return nil, lin, nil, nil, nil, err
	}
	// Version-4 slices declare the influencer-row range their base section
	// holds; the base walk below then enforces it row by row.
	rowLo, rowHi := 0, lin.NumUsers
	if version == snapshotVersionSlice {
		rowLo, rowHi = int(sc.u32()), int(sc.u32())
		if sc.err == nil && (rowLo < 0 || rowLo > rowHi || rowHi > lin.NumUsers) {
			return nil, lin, nil, nil, nil, fmt.Errorf("core: snapshot: slice rows [%d,%d) outside the universe [0,%d)", rowLo, rowHi, lin.NumUsers)
		}
		e.partitioned = true
		e.partLo, e.partHi = rowLo, rowHi
	}
	// Version-5 snapshots carry the approximate tier's RR sketch between
	// the prefix section and the header CRC, so both the heap and the
	// mapped open restore it integrity-checked.
	var sketch *RRSketch
	if version == snapshotVersionSketch {
		if sketch, err = parseSketchSection(sc, lin.NumUsers); err != nil {
			return nil, lin, nil, nil, nil, err
		}
	}
	// Version-6 snapshots carry a flags byte, then the optional sketch
	// section, then the provenance section — all inside the header CRC.
	// The prov flag must be set (a provless engine state writes version 3
	// or 5, keeping its encoding unique) and stray bits are refused.
	var prov *ProvIndex
	if version == snapshotVersionProv {
		flags := sc.u8()
		if sc.err == nil && (flags&provFlagProv == 0 || flags&^(provFlagProv|provFlagSketch) != 0) {
			return nil, lin, nil, nil, nil, fmt.Errorf("core: snapshot: version-%d flags %#02x (want the provenance bit set and no stray bits)", snapshotVersionProv, flags)
		}
		if flags&provFlagSketch != 0 {
			if sketch, err = parseSketchSection(sc, lin.NumUsers); err != nil {
				return nil, lin, nil, nil, nil, err
			}
		}
		if prov, err = parseProvSection(sc, lin.NumUsers, lin.NumActions, alias); err != nil {
			return nil, lin, nil, nil, nil, err
		}
	}
	// Header CRC: everything from the magic up to this field. It makes the
	// mapped open corruption-checked over every byte it trusts blindly
	// (the structural walk covers the rest).
	headerEnd := sc.off
	declared := sc.u32()
	if sc.err != nil {
		return nil, lin, nil, nil, nil, sc.err
	}
	if got := crc32.ChecksumIEEE(payload[:headerEnd]); got != declared {
		return nil, lin, nil, nil, nil, fmt.Errorf("core: snapshot: header checksum mismatch (file %08x, computed %08x)", declared, got)
	}
	padLen := (8 - sc.off%8) % 8
	for _, b := range sc.take(padLen) {
		if b != 0 {
			return nil, lin, nil, nil, nil, fmt.Errorf("core: snapshot: non-zero alignment padding before the base section")
		}
	}
	if sc.err != nil {
		return nil, lin, nil, nil, nil, sc.err
	}
	baseOff := sc.off
	extents, total, err := validateBaseSection(payload, baseOff, lin.NumUsers, lin.NumActions, rowLo, rowHi)
	if err != nil {
		return nil, lin, nil, nil, nil, err
	}
	e.entries = total
	if alias && (len(payload) == baseOff || uintptr(unsafe.Pointer(&payload[baseOff]))%8 == 0) {
		for _, ext := range extents {
			e.uc = append(e.uc, aliasShard(payload, ext, lin.NumUsers))
		}
	} else {
		decodeHeapShards(e, payload, extents)
	}
	return e, lin, prefix, sketch, prov, nil
}

// aliasShard wraps one validated block as an in-place mappedShard.
func aliasShard(payload []byte, ext baseExtent, numUsers int) *mappedShard {
	ms := &mappedShard{
		numUsers: numUsers,
		bytes:    8 + int64(ext.rowCount)*16 + int64(ext.entCount)*16,
	}
	if ext.rowCount > 0 {
		ms.dir = unsafe.Slice((*mdirEntry)(unsafe.Pointer(&payload[ext.dirStart])), ext.rowCount)
		ms.first = ms.dir[0].off
	}
	if ext.entCount > 0 {
		ms.entries = unsafe.Slice((*ucEntry)(unsafe.Pointer(&payload[ext.entStart])), ext.entCount)
	}
	return ms
}
