package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"
)

// This file holds the version-3 base-section parse that both snapshot
// opens share (OpenSnapshot, snapshot.go). The base section is laid out
// exactly like the in-memory shard (sparse.go: 16-byte directory records,
// 16-byte ucEntry-shaped cells, everything 8-aligned and little-endian),
// so after a full structural validation — the header CRC, every offset
// table, every key and id — each shard is a window straight onto the
// file's bytes, whether those sit in a mapping or in the heap open's
// buffer: no cell is copied and no row allocated. Only hosts whose memory
// layout cannot alias the records decode them into heap shards instead.

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
// false, OpenSnapshot still works by decoding the same bytes into heap
// shards.
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

// validateBaseSection walks a version-3/4 base section at payload[baseOff:]
// and enforces the canonical layout in full: the per-action offset table
// must point at contiguous, in-order blocks; row keys and cell ids must
// be strictly ascending and in range — row keys additionally inside
// [rowLo, rowHi), the declared row range of a version-4 slice (the full
// universe for a version-3 file); every row offset must equal its
// canonical (contiguous, 8-aligned) position; cell padding words must be
// zero; and the section must end exactly at the payload end. Both the
// heap open and the mapped open run this, so a corrupt or hostile
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

// parseSnapshot parses a version-3 to 6 snapshot held in data (footer
// included), the one parse behind both opens. With alias set and the
// base section 8-aligned in memory, shards alias data in place;
// otherwise they are decoded into heap copies, so nothing pins data.
// mapped marks aliased shards as file-backed pages and skips the
// full-file footer CRC, which the heap open verifies right after the
// version check. The header CRC is verified either way.
func parseSnapshot(data []byte, alias, mapped bool) (*SnapshotFile, error) {
	if !IsSnapshotHeader(data) {
		return nil, errors.New("core: snapshot: bad magic (not a model snapshot); " + rebuildHint)
	}
	if len(data) < len(snapshotMagic)+4+4 {
		return nil, errors.New("core: snapshot: truncated input: shorter than the fixed header")
	}
	payload := data[:len(data)-4]
	sc := &snapCursor{b: payload, off: len(snapshotMagic)}
	version := sc.u32()
	switch version {
	case snapshotVersion, snapshotVersionSlice, snapshotVersionSketch, snapshotVersionProv:
	default:
		return nil, fmt.Errorf("core: snapshot: unsupported version %d (this build reads %d through %d); %s", version, snapshotVersion, snapshotVersionProv, rebuildHint)
	}
	// Integrity first on the heap: the footer covers the whole payload,
	// so every later structural check runs on bytes known to be exactly
	// what the writer produced (or the file is rejected here, wholesale).
	if !mapped {
		if got, want := binary.LittleEndian.Uint32(data[len(payload):]), crc32.ChecksumIEEE(payload); got != want {
			return nil, fmt.Errorf("core: snapshot: checksum mismatch (file %08x, computed %08x): corrupt or truncated input", got, want)
		}
	}
	// Shards alias the base section only where it sits 8-aligned in
	// memory. The writer pads it to an 8-aligned file offset, so any
	// 8-aligned buffer (a mapping, or readAligned's) qualifies.
	alias = alias && uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 == 0
	lin, lambda, credit, err := parseSnapshotHeader(sc)
	if err != nil {
		return nil, err
	}
	e := newSnapshotEngine(lin, lambda, credit)
	if err := parseUsers(sc, lin, e); err != nil {
		return nil, err
	}
	f := &SnapshotFile{Engine: e, Lineage: lin, data: data}
	if f.Prefix, err = parseSeedPrefix(sc, lin.NumUsers); err != nil {
		return nil, err
	}
	// Version-4 slices declare the influencer-row range their base section
	// holds; the base walk below then enforces it row by row. Reading them
	// is benchmark-pinned: credist-bench reopens pre-split slices.
	f.RowHi = lin.NumUsers
	if version == snapshotVersionSlice {
		f.Slice, f.RowLo, f.RowHi = true, int(sc.u32()), int(sc.u32())
		if sc.err == nil && (f.RowLo < 0 || f.RowLo > f.RowHi || f.RowHi > lin.NumUsers) {
			return nil, fmt.Errorf("core: snapshot: slice rows [%d,%d) outside the universe [0,%d)", f.RowLo, f.RowHi, lin.NumUsers)
		}
	}
	// Version-5 snapshots carry the approximate tier's RR sketch between
	// the prefix section and the header CRC, so both opens restore it
	// integrity-checked.
	if version == snapshotVersionSketch {
		if f.Sketch, err = parseSketchSection(sc, lin.NumUsers); err != nil {
			return nil, err
		}
	}
	// Legacy version-6 snapshots carry a flags byte, then the optional
	// sketch section, then a provenance section — all inside the header
	// CRC. The prov flag must be set, as its writer always set it, and
	// stray bits are refused; the section is validated and skipped.
	if version == snapshotVersionProv {
		flags := sc.u8()
		if sc.err == nil && (flags&provFlagProv == 0 || flags&^(provFlagProv|provFlagSketch) != 0) {
			return nil, fmt.Errorf("core: snapshot: version-%d flags %#02x (want the provenance bit set and no stray bits)", snapshotVersionProv, flags)
		}
		if flags&provFlagSketch != 0 {
			if f.Sketch, err = parseSketchSection(sc, lin.NumUsers); err != nil {
				return nil, err
			}
		}
		if err := skipProvSection(sc, lin.NumUsers, lin.NumActions); err != nil {
			return nil, err
		}
	}
	// Header CRC: everything from the magic up to this field. It makes the
	// mapped open corruption-checked over every byte it trusts blindly
	// (the structural walk covers the rest).
	headerEnd := sc.off
	declared := sc.u32()
	if sc.err != nil {
		return nil, sc.err
	}
	if got := crc32.ChecksumIEEE(payload[:headerEnd]); got != declared {
		return nil, fmt.Errorf("core: snapshot: header checksum mismatch (file %08x, computed %08x)", declared, got)
	}
	padLen := (8 - sc.off%8) % 8
	for _, b := range sc.take(padLen) {
		if b != 0 {
			return nil, fmt.Errorf("core: snapshot: non-zero alignment padding before the base section")
		}
	}
	if sc.err != nil {
		return nil, sc.err
	}
	baseOff := sc.off
	extents, total, err := validateBaseSection(payload, baseOff, lin.NumUsers, lin.NumActions, f.RowLo, f.RowHi)
	if err != nil {
		return nil, err
	}
	e.entries = total
	for _, ext := range extents {
		if alias {
			e.uc = append(e.uc, aliasShard(payload, ext, mapped))
		} else {
			e.uc = append(e.uc, copyShard(payload, ext))
		}
	}
	if !alias {
		f.data = nil
	}
	return f, nil
}

// aliasShard wraps one validated block as an in-place shard.
func aliasShard(payload []byte, ext baseExtent, mapped bool) *shard {
	s := &shard{mapped: mapped}
	if ext.rowCount > 0 {
		s.dir = unsafe.Slice((*mdirEntry)(unsafe.Pointer(&payload[ext.dirStart])), ext.rowCount)
		s.first = s.dir[0].off
	}
	if ext.entCount > 0 {
		s.cells = unsafe.Slice((*ucEntry)(unsafe.Pointer(&payload[ext.entStart])), ext.entCount)
	}
	return s
}

// copyShard decodes one validated block into a heap shard: the fallback
// where the host cannot alias the records or the buffer is unaligned.
// Directory offsets keep their on-disk values, so the copy reads exactly
// like an aliased shard.
func copyShard(payload []byte, ext baseExtent) *shard {
	s := &shard{}
	if ext.rowCount == 0 {
		return s
	}
	s.dir = make([]mdirEntry, ext.rowCount)
	for ri := range s.dir {
		rec := payload[ext.dirStart+ri*16:]
		s.dir[ri] = mdirEntry{
			key:   int32(binary.LittleEndian.Uint32(rec)),
			count: binary.LittleEndian.Uint32(rec[4:]),
			off:   binary.LittleEndian.Uint64(rec[8:]),
		}
	}
	s.first = s.dir[0].off
	s.cells = make([]ucEntry, ext.entCount)
	for i := range s.cells {
		cell := payload[ext.entStart+i*16:]
		s.cells[i] = ucEntry{u: int32(binary.LittleEndian.Uint32(cell)), c: math.Float64frombits(binary.LittleEndian.Uint64(cell[8:]))}
	}
	return s
}
